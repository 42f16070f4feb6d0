package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"phiopenssl"
	"phiopenssl/internal/phiwork"
)

// runTraced is the per-layer run: the layer micro-measurements, then the
// paced phase and saturation drains untraced (the per-phase counters),
// then the same paced schedule again, its segments alternating between the
// untraced stack and a fresh stack with tracing on (the stage split, the
// span self times and the tracing overhead).
func runTraced(s spec, o options) (*result, map[string]any, error) {
	var r report
	if err := measureLayers(&r, o.seed); err != nil {
		return nil, nil, err
	}
	p, err := prepare(s, o)
	if err != nil {
		return nil, nil, err
	}
	ph := p.paced(s)
	sat := p.saturate(p.drainBudget, 3)
	countersFrom(&r, ph, sat)

	tr := &tracer{}
	st, _, err := setUp(s, p.warm, tr.recorder())
	if err != nil {
		p.st.close()
		return nil, nil, err
	}
	traced, untraced, overhead := p.alternate(s, p.st, st, tr)
	st.close()
	p.st.close()
	stg := tr.attach()
	r.add("phiserve.fill_wait_ms.p50", "ms", quantile(stg.fillMS, 0.50))
	r.add("phiserve.fill_wait_ms.p99", "ms", quantile(stg.fillMS, 0.99))
	r.add("phipool.queue_wait_ms.p50", "ms", quantile(stg.queueMS, 0.50))
	r.add("phipool.queue_wait_ms.p99", "ms", quantile(stg.queueMS, 0.99))
	r.add("phiserve.light_queue_wait_ms.p99", "ms", quantile(stg.lightQueueMS, 0.99))
	r.add("phiwork.pass_ms.p50", "ms", quantile(stg.passMS, 0.50))
	r.add("phiwork.pass_ms.p99", "ms", quantile(stg.passMS, 0.99))
	sent := 0
	for _, t := range traced {
		sent += t.sent
	}
	self := tr.selfTimes()
	for _, name := range spanNames {
		r.add(name+".self_ms", "ms", self[name]/float64(sent))
	}
	r.add("phitrace.overhead_frac", "fraction", overhead)

	path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, o.seed))
	if err := tr.write(path, traced[0].start); err != nil {
		return nil, nil, err
	}
	printReport(s, &r, predictionNotes(s.name, r.names))
	fmt.Printf("trace: %d spans written to %s; %d journeys matched to their SubmitWork call, %d unmatched (set-up)\n",
		len(tr.spans), path, stg.matched, stg.unmatched)
	res := finish(&r, ph, append(append(sat, traced...), untraced...))
	return res, runStamp(r.m["ref.math_big_modexp_ms.1024"].Value), nil
}

// overheadPairs is how many pairs of segments, one untraced and one
// traced, the traced run cuts its second paced schedule into.
const overheadPairs = 3

// alternate cuts the paced schedule into 2*overheadPairs segments and
// runs them in the order untraced, traced, traced, untraced, ... on the
// untraced stack u and the traced stack t, so that host drift falls alike
// on both. It returns the traced segments, the untraced ones, and the
// median over pairs of traced over untraced CPU per completed request,
// minus one; a segment's CPU covers it until its last request has
// finished.
func (p *prepared) alternate(s spec, u, t *stack, tr *tracer) (traced, untraced []*phaseResult, overhead float64) {
	n := 2 * overheadPairs
	parts, seg := p.segments(n)
	warm := time.Duration(warmShare * float64(seg))
	cpu := func(ph *phaseResult) float64 { return ms(ph.cpu) / float64(ph.completed()) }
	var ratios []float64
	for k := 0; k < n; k += 2 {
		var pair [2]*phaseResult // untraced, traced
		for j := k; j < k+2; j++ {
			if j%4 == 1 || j%4 == 2 {
				pair[1] = runPhase(t, tenantPaced, s.limit, parts[j], warm, 0, 0, tr, seg+40*time.Second, false)
				traced = append(traced, pair[1])
			} else {
				pair[0] = runPhase(u, tenantPaced, s.limit, parts[j], warm, 0, 0, nil, seg+40*time.Second, false)
				untraced = append(untraced, pair[0])
			}
		}
		ratios = append(ratios, cpu(pair[1])/cpu(pair[0]))
	}
	return traced, untraced, median(ratios) - 1
}

// spanNames are the benchmark's span names, in nesting order.
// An op span is exactly covered by its submit and result spans, so it has
// no self time of its own and is left out.
var spanNames = []string{spanRequest, spanSubmit, spanResult, spanFill, spanQueue, spanPass}

// measureLayers adds the batch-pass, modexp and no-op layer metrics.
func measureLayers(r *report, seed int64) error {
	for _, bits := range []int{1024, 2048} {
		m, err := newMaterial(bits)
		if err != nil {
			return err
		}
		key, err := phiopenssl.UnmarshalPrivateKey(keyText(bits))
		if err != nil {
			return fmt.Errorf("parse key: %w", err)
		}
		group := phiopenssl.DHModp1024()
		ws := []phiwork.Workload{phiwork.NewRSAPrivate(key)}
		if bits == 1024 {
			ws = append(ws, phiwork.NewPSSSign(key), phiwork.NewDHEFixed(group),
				phiwork.NewDHEVar(group), phiwork.NewRSAPublic(&key.PublicKey))
		}
		for _, w := range ws {
			ins, err := passInputs(m, w.Kind(), seed)
			if err != nil {
				return err
			}
			ps, err := measurePass(w, ins, 3)
			if err != nil {
				return err
			}
			prefix := fmt.Sprintf("phiwork.%s-%d.", w.Kind(), bits)
			r.add(prefix+"pass16_ms", "ms", ps.pass16MS)
			r.add(prefix+"pass1_ms", "ms", ps.pass1MS)
			r.add(prefix+"sim_mcycles16", "Mcycles", ps.simMCycles16)
			r.add(prefix+"alloc_kb16", "KiB", ps.allocKB16)
		}
		bnMS, bigMS := modexpMS(m, seed, 5)
		r.add(fmt.Sprintf("bn.modexp_ms.%d", bits), "ms", bnMS)
		r.add(fmt.Sprintf("ref.math_big_modexp_ms.%d", bits), "ms", bigMS)
	}
	pool, serve, fleet, admit, err := noopLayers(200)
	if err != nil {
		return fmt.Errorf("no-op layers: %w", err)
	}
	r.add("phipool.dispatch_us", "us", pool.wallUS)
	r.add("phipool.noop_cpu_us_per_req", "us", pool.cpuUS)
	for _, l := range []struct {
		name        string
		this, below layerCost
	}{{"phiserve", serve, pool}, {"phifleet", fleet, serve}, {"phiadmit", admit, fleet}} {
		r.add(l.name+".noop_us_per_req", "us", l.this.wallUS-l.below.wallUS)
		r.add(l.name+".noop_cpu_us_per_req", "us", l.this.cpuUS-l.below.cpuUS)
	}
	return nil
}

// countersFrom adds the per-phase counters read from the fleet's and the
// door's Stats, and the load generator's and Go runtime's readings, from
// the untraced paced phase and the saturation drains.
func countersFrom(r *report, ph *phaseResult, sat []*phaseResult) {
	a, b := ph.fleetAfter, ph.fleetBefore
	batches := float64(a.Fleet.Batches - b.Fleet.Batches)
	ops := float64(a.Fleet.Completed - b.Fleet.Completed)
	r.add("phiserve.mean_fill", "lanes", meanFill(a.Fleet.FillHist, b.Fleet.FillHist))
	r.add("phiserve.deadline_fire_frac", "ratio", float64(a.Fleet.DeadlineFires-b.Fleet.DeadlineFires)/batches)
	r.add("phiserve.batches_per_req", "count", batches/float64(ph.completed()))
	r.add("phiserve.overflow_batches", "count", float64(a.Fleet.OverflowBatches-b.Fleet.OverflowBatches))
	r.add("phiserve.expired_lanes", "count", float64(a.Fleet.ExpiredLanes-b.Fleet.ExpiredLanes))
	r.add("phiserve.fallback_ops", "count", float64(a.Fleet.FallbackOps-b.Fleet.FallbackOps))
	var fills []float64
	for _, s := range sat {
		fills = append(fills, meanFill(s.fleetAfter.Fleet.FillHist, s.fleetBefore.Fleet.FillHist))
	}
	r.add("phiserve.mean_fill_saturated", "lanes", median(fills))

	r.add("phifleet.steal_frac", "fraction", float64(a.Fleet.StolenLanes-b.Fleet.StolenLanes)/ops)
	r.add("phifleet.hot_routed_frac", "fraction", float64(a.HotRouted-b.HotRouted)/ops)
	var maxCard, sumCard float64
	for i := range a.Cards {
		c := float64(a.Cards[i].Completed - b.Cards[i].Completed)
		sumCard += c
		if c > maxCard {
			maxCard = c
		}
	}
	r.add("phifleet.card_skew", "ratio", maxCard/(sumCard/float64(len(a.Cards))))

	da, db := ph.doorAfter, ph.doorBefore
	shed := float64(da.Shed - db.Shed)
	r.add("phiadmit.shed_frac", "fraction", shed/(shed+float64(da.Admitted-db.Admitted)))
	r.add("phiadmit.brownout_enters", "count", float64(da.BrownoutEnters-db.BrownoutEnters))

	r.add("loadgen.error_frac", "fraction", ph.errorFrac())
	r.add("loadgen.late_p99_ms", "ms", quantile(ph.lateMS, 0.99))
	r.add("loadgen.sent", "count", float64(ph.sent))
	r.add("go.gc_cpu_frac", "fraction", ph.gcCPU/ph.cpu.Seconds())
	r.add("go.heap_peak_mb", "MiB", ph.heapPeak)
}

// meanFill is the mean live lanes per batch between two fill histograms.
func meanFill(after, before [16]int64) float64 {
	var lanes, batches float64
	for i := range after {
		n := float64(after[i] - before[i])
		lanes += float64(i+1) * n
		batches += n
	}
	if batches == 0 {
		return 0
	}
	return lanes / batches
}

// prediction says which end-to-end metrics a per-layer metric should move,
// and on which workloads, before anything is measured.
type prediction struct {
	match     string // substring of the metric name
	moves     string
	workloads []string
}

// predictions is checked in order; the first match applies.
var predictions = []prediction{
	{".pass1_ms", "latency_*, cpu_ms_per_req", []string{"rsa-kx", "tls-blend"}},
	{".pass16_ms", "capacity_rps", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{".sim_mcycles16", "sim_cycles_per_req only", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{".alloc_kb16", "alloc_kb_per_req", []string{"rsa-kx"}},
	{"bn.modexp_ms", "nothing at zero fault rate (scalar fallback only)", nil},
	{"ref.", "nothing: same-run host reference", nil},
	{"noop", "latency_p50_ms, cpu_ms_per_req (under 1% of rsa-kx)", []string{"public-verify"}},
	{"phipool.dispatch_us", "latency_p50_ms, cpu_ms_per_req (under 1% of rsa-kx)", []string{"public-verify"}},
	{"mean_fill_saturated", "capacity_rps", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{"phiserve.mean_fill", "sim_cycles_per_req, cpu_ms_per_req, latency_p50_ms", []string{"rsa-kx", "tls-blend"}},
	{"deadline_fire_frac", "sim_cycles_per_req, cpu_ms_per_req, latency_p50_ms", []string{"rsa-kx", "tls-blend"}},
	{"batches_per_req", "sim_cycles_per_req, cpu_ms_per_req, latency_p50_ms", []string{"rsa-kx", "tls-blend"}},
	{"overflow_batches", "latency_p99_ms", []string{"rsa-kx", "tls-blend"}},
	{"expired_lanes", "ok_frac, slo_met_frac", []string{"tls-blend"}},
	{"fallback_ops", "sim_cycles_per_req, cpu_ms_per_req", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{"phifleet.", "latency_p50_ms, capacity_rps", []string{"rsa-kx", "public-verify"}},
	{"phiadmit.submit", "latency_p50_ms, cpu_ms_per_req", []string{"public-verify"}},
	{"phiadmit.", "ok_frac, slo_met_frac", []string{"tls-blend"}},
	{"fill", "latency_p50_ms", []string{"public-verify", "tls-blend"}},
	{"light_queue", "latency_p99_ms", []string{"tls-blend"}},
	{"queue", "latency_p99_ms", []string{"rsa-kx", "tls-blend"}},
	{"phiwork.pass", "latency_p50_ms", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{"phiserve.result", "latency_p50_ms", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{"phitrace.overhead_frac", "nothing end to end (end-to-end runs are untraced)", nil},
	{"loadgen.error_frac", "ok_frac, slo_met_frac", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{"loadgen.late", "run validity: latency_* are trusted only while it stays small", nil},
	{"loadgen.sent", "run validity: requests sent in the paced phase", nil},
	{"loadgen.request", "latency_p99_ms (pacer lateness and stage hand-offs)", []string{"rsa-kx", "public-verify", "tls-blend"}},
	{"go.", "alloc_kb_per_req, cpu_ms_per_req", []string{"rsa-kx", "public-verify", "tls-blend"}},
}

// predictionNotes annotates each metric with its prediction, marked "*"
// when this workload is one it is predicted to move.
func predictionNotes(workload string, names []string) map[string]string {
	notes := map[string]string{}
	for _, n := range names {
		for _, p := range predictions {
			if !strings.Contains(n, p.match) {
				continue
			}
			mark := " "
			for _, w := range p.workloads {
				if w == workload {
					mark = "*"
				}
			}
			on := ""
			if len(p.workloads) > 0 {
				on = " on " + strings.Join(p.workloads, ", ")
			}
			notes[n] = mark + " moves " + p.moves + on
			break
		}
	}
	return notes
}
