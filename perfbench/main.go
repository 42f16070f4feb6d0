// Command perfbench is the repository's benchmark. It drives the
// phiopenssl serving stack the way a TLS terminator would — a two-card
// fleet behind the admission door, fed single requests through SubmitWork
// on a seeded open-loop Poisson schedule — checks every result bit for bit
// against a math/big reference, and prints the end-to-end metrics of one
// workload (--trace 0) or, from a traced run, the per-layer metrics
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload rsa-kx --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each per-layer
// metric is predicted to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The paced schedule lasts pacedShare of --seconds; saturation drains
// take the rest. Requests scheduled in the first warmShare of a paced
// phase are sent but not measured. Each drain drains a backlog generated
// up front, maxDrains at most.
const (
	pacedShare = 0.7
	warmShare  = 0.15
	maxDrains  = 40
)

// An end-to-end run is cut into blocks: each runs one slice of the paced
// schedule and then saturation drains for its share of the drain time, so
// the paced readings and the capacity both sample the whole run rather
// than its start and its end.
const blocks = 5

// windows is how many windows the measured part of the paced schedule is
// cut into, windows/blocks per block; the per-request readings are
// medians over them.
const windows = 30

// setups is how many cold set-ups setup_s is the median of.
const setups = 15

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	out       string
	setupOnly bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: rsa-kx, public-verify, tls-blend or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.IntVar(&o.seconds, "seconds", 20, "seconds one run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench-out"), "directory the traced run writes its spans to")
	flag.BoolVar(&o.setupOnly, "setup-only", false, "time one cold set-up and print it (used by the benchmark itself)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metrics in the order they are printed.
type report struct {
	names []string
	m     map[string]metric
}

func (r *report) add(name, unit string, v float64) {
	if r.m == nil {
		r.m = map[string]metric{}
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

func run(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if o.workload == "all" && !o.setupOnly {
		return runAll(o)
	}
	s, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.setupOnly {
		d, err := coldSetup(s)
		if err != nil {
			return err
		}
		fmt.Printf("setup_s %.9f\n", d.Seconds())
		return nil
	}
	var res *result
	var stamp map[string]any
	var err error
	if o.trace == 1 {
		res, stamp, err = runTraced(s, o)
	} else {
		res, stamp, err = runEndToEnd(s, o)
	}
	if err != nil {
		return err
	}
	return emit(res, stamp)
}

// emit prints the stamp line and the result line, and fails the run on a
// wrong result.
func emit(res *result, stamp map[string]any) error {
	b, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if b, err = json.Marshal(res); err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return fmt.Errorf("wrong results: see above")
	}
	return nil
}

// coldSetup is one set-up in a fresh process, closed again.
func coldSetup(s spec) (time.Duration, error) {
	m, err := newMaterial(1024)
	if err != nil {
		return 0, err
	}
	warm, err := warmOps(s, m)
	if err != nil {
		return 0, err
	}
	st, d, err := setUp(s, warm, nil)
	if err != nil {
		return 0, err
	}
	st.close()
	return d, nil
}

// setupSeconds times setups-1 more cold set-ups, each in its own process,
// and returns the median with first.
func setupSeconds(s spec, first time.Duration) (float64, error) {
	samples := []float64{first.Seconds()}
	for i := 1; i < setups; i++ {
		out, err := exec.Command(os.Args[0], "--setup-only", "--workload", s.name).Output()
		if err != nil {
			return 0, fmt.Errorf("cold set-up: %w", err)
		}
		f := strings.Fields(string(out))
		if len(f) != 2 || f[0] != "setup_s" {
			return 0, fmt.Errorf("cold set-up printed %q", out)
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("cold set-up: %w", err)
		}
		samples = append(samples, v)
	}
	return median(samples), nil
}

// prepared is a run's generated inputs, its running stack and the time
// set-up took.
type prepared struct {
	in    *inputs
	warm  []op
	st    *stack
	setup time.Duration

	pacedDur, drainBudget time.Duration
	drained               int // backlogs drained so far
}

func prepare(s spec, o options) (*prepared, error) {
	m, err := newMaterial(1024)
	if err != nil {
		return nil, err
	}
	paced := time.Duration(pacedShare * float64(o.seconds) * float64(time.Second))
	in, err := generate(s, m, o.seed, paced, maxDrains)
	if err != nil {
		return nil, err
	}
	warm, err := warmOps(s, m)
	if err != nil {
		return nil, err
	}
	st, d, err := setUp(s, warm, nil)
	if err != nil {
		return nil, err
	}
	if err := st.selfTest(warm[0]); err != nil {
		st.close()
		return nil, fmt.Errorf("self-test: %w", err)
	}
	budget := time.Duration(float64(o.seconds)*float64(time.Second)) - paced
	return &prepared{in: in, warm: warm, st: st, setup: d, pacedDur: paced, drainBudget: budget}, nil
}

// paced runs the whole paced schedule as one phase, untraced, on the
// prepared stack, sampling the live heap.
func (p *prepared) paced(s spec) *phaseResult {
	guard := p.pacedDur + 40*time.Second
	warm := time.Duration(warmShare * float64(p.pacedDur))
	window := (p.pacedDur - warm) / windows
	return runPhase(p.st, tenantPaced, s.limit, p.in.paced, warm, windows, window, nil, guard, true)
}

// segments cuts the paced schedule into n consecutive slices of equal
// length, each timed from its own start, and returns them and the length.
func (p *prepared) segments(n int) ([][]arrival, time.Duration) {
	seg := p.pacedDur / time.Duration(n)
	parts := make([][]arrival, n)
	for _, a := range p.in.paced {
		if k := int(a.at / seg); k < n {
			parts[k] = append(parts[k], arrival{at: a.at - time.Duration(k)*seg, req: a.req})
		}
	}
	return parts, seg
}

// interleaved runs the paced schedule in blocks, each slice followed by
// saturation drains, and returns the slices merged into one phase, and
// the drains.
func (p *prepared) interleaved(s spec) (*phaseResult, []*phaseResult) {
	parts, seg := p.segments(blocks)
	warm := time.Duration(warmShare * float64(seg))
	n := windows / blocks
	window := (seg - warm) / time.Duration(n)
	var paced, sat []*phaseResult
	for _, part := range parts {
		paced = append(paced, runPhase(p.st, tenantPaced, s.limit, part, warm, n, window, nil, seg+40*time.Second, false))
		sat = append(sat, p.saturate(p.drainBudget/blocks, 1)...)
	}
	return merge(paced), sat
}

// saturate drains backlogs one after another, taking them from the
// generated ones in turn, until budget is spent and at least min have
// run, and returns the phases.
func (p *prepared) saturate(budget time.Duration, min int) []*phaseResult {
	var out []*phaseResult
	start := time.Now()
	for ; p.drained < len(p.in.backlog); p.drained++ {
		if len(out) >= min && time.Since(start) >= budget {
			break
		}
		b := p.in.backlog[p.drained]
		sched := make([]arrival, len(b))
		for i, t := range b {
			sched[i] = arrival{req: t}
		}
		out = append(out, runPhase(p.st, tenantDrain, doorSLO, sched, 0, 0, 0, nil, 60*time.Second, false))
	}
	return out
}

func runEndToEnd(s spec, o options) (*result, map[string]any, error) {
	p, err := prepare(s, o)
	if err != nil {
		return nil, nil, err
	}
	setup, err := setupSeconds(s, p.setup)
	if err != nil {
		p.st.close()
		return nil, nil, err
	}
	stopRef := sampleRef(1024, 250*time.Millisecond)
	ph, sat := p.interleaved(s)
	runRef := stopRef()
	p.st.close()

	var r report
	r.add("setup_s", "s", setup)
	r.add("latency_p50_ms", "ms", ph.windowMedian(func(w windowStat) float64 { return w.p50MS }))
	p99, calm, groups := ph.p99MS()
	r.add("latency_p99_ms", "ms", p99)
	r.add("slo_met_frac", "fraction", float64(ph.sloMet)/float64(ph.measured))
	r.add("ok_frac", "fraction", 1-ph.errorFrac())
	r.add("capacity_rps", "1/s", capacity(sat))
	r.add("cpu_ms_per_req", "ms", ph.windowMedian(func(w windowStat) float64 { return w.cpuMS }))
	r.add("alloc_kb_per_req", "KiB", ph.windowMedian(func(w windowStat) float64 { return w.allocKB }))
	r.add("sim_cycles_per_req", "cycles", ph.windowMedian(func(w windowStat) float64 { return w.cycles }))
	printReport(s, &r, nil)
	fmt.Printf("samples: %d requests sent, %d completed, %d measured after warm-up; latency_p99_ms over %d of %d groups (the calmer by VM steal); %d saturation drains; error_frac %.6f\n",
		ph.sent, ph.completed(), ph.measured, calm, groups, len(sat), ph.errorFrac())
	stamp := runStamp(refModexpMS(1024, 21))
	stamp["ref.math_big_modexp_ms.1024.loaded"] = runRef
	return finish(&r, ph, sat), stamp, nil
}

// finish builds the result from the measured phases.
func finish(r *report, ph *phaseResult, sat []*phaseResult) *result {
	res := &result{Correct: true, Attempted: ph.sent, Failed: ph.reqFailed, Metrics: r.m}
	for _, p := range append([]*phaseResult{ph}, sat...) {
		if p.opsWrong > 0 || p.timedOut {
			res.Correct = false
		}
		if p.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failed op:", p.firstErr)
		}
	}
	return res
}

func (p *phaseResult) errorFrac() float64 {
	if p.opsAttempted == 0 {
		return 1
	}
	return float64(p.opsFailed) / float64(p.opsAttempted)
}

// capacity is the pooled drain rate over the saturation phases: the
// completions between each drain's 20th and 80th percentile completions,
// which leaves out the ramp while the backlog is submitted and the tail of
// partial batches, over the time they took. Pooling weighs every drain by
// its length, so the GC cycles and batch fills that make single drains
// differ average out over all of them.
func capacity(sat []*phaseResult) float64 {
	var done, secs float64
	for _, p := range sat {
		n := len(p.doneAt)
		if n < 10 {
			continue
		}
		sort.Slice(p.doneAt, func(a, b int) bool { return p.doneAt[a].Before(p.doneAt[b]) })
		i, j := n/5, n*4/5
		done += float64(j - i)
		secs += p.doneAt[j].Sub(p.doneAt[i]).Seconds()
	}
	return done / secs
}

func printReport(s spec, r *report, notes map[string]string) {
	fmt.Printf("workload %s: %.0f req/s paced, latency limit %v\n", s.name, s.rate, s.limit)
	for _, n := range r.names {
		m := r.m[n]
		line := fmt.Sprintf("  %-44s %14.6g %s", n, m.Value, m.Unit)
		if note := notes[n]; note != "" {
			line += "    " + note
		}
		fmt.Println(line)
	}
}

// runAll runs every workload, each in its own process, and prints their
// metrics; the last line aggregates them under "<workload>/<metric>".
func runAll(o options) error {
	agg := &result{Correct: true, Metrics: map[string]metric{}}
	for _, s := range specs {
		cmd := exec.Command(os.Args[0], "--workload", s.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "--out", o.out)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil || err != nil {
			agg.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: workload %s failed: %v\n", s.name, err)
			continue
		}
		agg.Correct = agg.Correct && res.Correct
		agg.Attempted += res.Attempted
		agg.Failed += res.Failed
		for n, m := range res.Metrics {
			agg.Metrics[s.name+"/"+n] = m
		}
	}
	b, err := json.Marshal(agg)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !agg.Correct {
		return fmt.Errorf("a workload failed or returned wrong results")
	}
	return nil
}
