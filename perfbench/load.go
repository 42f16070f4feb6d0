package main

import (
	"context"
	"errors"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"phiopenssl"
)

// errWrong marks a result that differs from its reference answer.
var errWrong = errors.New("wrong result")

// The load generator. One pacing goroutine makes the SubmitWork call of
// every new request at its scheduled send time: an open loop, so a stall
// or a Submit blocked by backpressure delays every later request. One
// goroutine per op awaits its result; the one that completes a handshake
// stage submits the next stage's ops itself. Each request is timed from
// its scheduled send time.

// reqState is one request in flight. Its fields after t are guarded by
// runner.mu.
type reqState struct {
	t       *template
	sched   time.Time
	stage   int
	pending int
	failed  bool
	span    int64
	// measured is set for requests scheduled after the phase's warm-up;
	// only they count in latency and slo_met_frac.
	measured bool
}

// phaseResult is what one phase measured.
type phaseResult struct {
	sent, reqFailed                   int
	measured, sloMet                  int
	lat                               []latSample // measured requests
	lateMS                            []float64
	windows                           []windowStat
	opsAttempted, opsFailed, opsWrong int
	start                             time.Time
	doneAt                            []time.Time // completion of every completed request
	cpu                               time.Duration
	gcCPU                             float64
	heapPeak                          float64
	fleetBefore, fleetAfter           phiopenssl.FleetStats
	doorBefore, doorAfter             phiopenssl.AdmissionStats
	timedOut                          bool
	firstErr                          error
}

func (p *phaseResult) completed() int { return p.sent - p.reqFailed }

// merge combines consecutive paced phases into the result an end-to-end
// report reads: counts add up, latency samples and windows are
// concatenated. Samples keep their offsets from their own phase's start.
func merge(phs []*phaseResult) *phaseResult {
	m := &phaseResult{start: phs[0].start}
	for _, p := range phs {
		m.sent += p.sent
		m.reqFailed += p.reqFailed
		m.measured += p.measured
		m.sloMet += p.sloMet
		m.lat = append(m.lat, p.lat...)
		m.windows = append(m.windows, p.windows...)
		m.opsAttempted += p.opsAttempted
		m.opsFailed += p.opsFailed
		m.opsWrong += p.opsWrong
		m.timedOut = m.timedOut || p.timedOut
		if m.firstErr == nil {
			m.firstErr = p.firstErr
		}
	}
	return m
}

// latSample is one measured request's latency and when it was scheduled,
// as an offset from the start of the phase.
type latSample struct {
	at time.Duration
	ms float64
}

// windowStat is one window of a paced phase's measured part: the median
// latency of the requests scheduled in it, CPU, heap allocation and
// simulated cycles per request completed in it, and the VM's steal and
// total CPU ticks over it.
type windowStat struct {
	latMS                         []float64
	p50MS, cpuMS, allocKB, cycles float64
	steal, ticks                  float64
}

// latMS returns the measured latencies.
func (p *phaseResult) latMS() []float64 {
	v := make([]float64, len(p.lat))
	for i, s := range p.lat {
		v[i] = s.ms
	}
	return v
}

// windowMedian is the median over the phase's windows of one reading.
func (p *phaseResult) windowMedian(f func(windowStat) float64) float64 {
	v := make([]float64, len(p.windows))
	for i, w := range p.windows {
		v[i] = f(w)
	}
	return median(v)
}

// tailSamples is how many samples a p99 is taken over at least: one and
// a half lie beyond it. Few enough that rsa-kx's windows make five
// groups, so that a host stall of a second or two, which lifts the p99 of
// the group it falls in, does not move the median over groups.
const tailSamples = 150

// tailGroup is a run of consecutive windows holding at least tailSamples
// requests: their latencies, and the VM's steal and total CPU ticks over
// them.
type tailGroup struct {
	lat          []float64
	steal, ticks float64
}

func (g *tailGroup) add(lat []float64, steal, ticks float64) {
	g.lat = append(g.lat, lat...)
	g.steal, g.ticks = g.steal+steal, g.ticks+ticks
}

// stealShare is the share of the VM's CPU time the hypervisor stole over
// the group: ticks in which a vCPU wanted to run and another guest ran.
func (g *tailGroup) stealShare() float64 {
	if g.ticks <= 0 {
		return 0
	}
	return g.steal / g.ticks
}

// tailGroups cuts the windows into tail groups (a shorter last run joins
// the one before it); with fewer samples than tailSamples there are none.
func (p *phaseResult) tailGroups() []tailGroup {
	var out []tailGroup
	var cur tailGroup
	for _, w := range p.windows {
		cur.add(w.latMS, w.steal, w.ticks)
		if len(cur.lat) >= tailSamples {
			out = append(out, cur)
			cur = tailGroup{}
		}
	}
	if len(out) > 0 {
		out[len(out)-1].add(cur.lat, cur.steal, cur.ticks)
	}
	return out
}

// p99MS is the median p99 over the calmer tail groups: those over which
// the hypervisor stole no larger a share of the VM's CPU than over the
// median group. On a shared host the tail follows steal (a window's p99
// correlated with its steal share at r = 0.6-0.9 in public-verify), so
// this reads the program's tail rather than its neighbours'; where steal
// is never seen, every group counts. With fewer than tailSamples samples
// it is the p99 of them all. calm and all count the groups used and made.
func (p *phaseResult) p99MS() (v float64, calm, all int) {
	groups := p.tailGroups()
	if len(groups) == 0 {
		return quantile(p.latMS(), 0.99), 0, 0
	}
	steal := make([]float64, len(groups))
	for i := range groups {
		steal[i] = groups[i].stealShare()
	}
	limit := median(append([]float64(nil), steal...)) // median sorts its argument
	var tails []float64
	for i := range groups {
		if steal[i] <= limit {
			tails = append(tails, quantile(groups[i].lat, 0.99))
		}
	}
	return median(tails), len(tails), len(groups)
}

type runner struct {
	st     *stack
	tenant string
	limit  time.Duration
	tr     *tracer // nil when untraced
	warm   time.Duration

	waiters sync.WaitGroup

	mu   sync.Mutex
	open int
	done int // requests completed
	res  phaseResult
}

// runPhase sends the schedule through the door and waits until every
// request has finished or guard has passed. Requests scheduled in the
// first warm of the phase, while queues fill, are sent but not measured;
// after it come nWindows windows of length window, each measured on its
// own, so a host that is slow for a few seconds moves one window, not the
// median over windows. heap samples the live heap while the phase runs.
func runPhase(st *stack, tenant string, limit time.Duration, sched []arrival, warm time.Duration, nWindows int, window time.Duration, tr *tracer, guard time.Duration, heap bool) *phaseResult {
	r := &runner{st: st, tenant: tenant, limit: limit, warm: warm, tr: tr}
	// Sized up front, so no append during the phase copies a slice and
	// charges the copy to the program's allocation.
	r.res.lateMS = make([]float64, 0, len(sched))
	r.res.lat = make([]latSample, 0, len(sched))
	r.res.doneAt = make([]time.Time, 0, len(sched))
	ctx, cancel := context.WithTimeout(context.Background(), guard)
	defer cancel()

	stopHeap := func() float64 { return 0 }
	if heap {
		stopHeap = sampleHeap()
	}
	r.res.fleetBefore, r.res.doorBefore = st.fleet.Stats(), st.door.Stats()
	cpu0, m0 := cpuTime(), readRuntime()
	r.res.start = time.Now()
	snaps := make(chan []snapshot, 1)
	go func() { snaps <- r.snapshots(ctx, nWindows, window) }()
	r.pace(ctx, sched)
	idle := make(chan struct{})
	go func() {
		r.waiters.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		// Requests still open at the guard resolve once the fleet is
		// canceled; they count as failed and the run as broken.
		r.res.timedOut = true
		st.cancel()
		<-idle
	}
	cpu1, m1 := cpuTime(), readRuntime()
	r.windowStats(<-snaps, window)
	r.res.heapPeak = stopHeap()
	r.res.fleetAfter, r.res.doorAfter = st.fleet.Stats(), st.door.Stats()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.reqFailed += r.open
	r.res.cpu = cpu1 - cpu0
	r.res.gcCPU = m1.gcCPU - m0.gcCPU
	return &r.res
}

// pace sends each request's first stage at its scheduled time.
func (r *runner) pace(ctx context.Context, sched []arrival) {
	for _, a := range sched {
		due := r.res.start.Add(a.at)
		if wait := time.Until(due); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return
			}
		}
		rs := &reqState{t: a.req, sched: due, pending: len(a.req.stages[0]), measured: a.at >= r.warm}
		r.mu.Lock()
		r.open++
		r.res.sent++
		if rs.measured {
			r.res.measured++
		}
		r.res.lateMS = append(r.res.lateMS, ms(time.Since(due)))
		if r.tr != nil {
			rs.span = r.tr.newID()
		}
		r.mu.Unlock()
		r.submitStage(ctx, rs, a.req.stages[0])
	}
}

func (r *runner) submitStage(ctx context.Context, rs *reqState, stage []op) {
	for _, o := range stage {
		r.submit(ctx, rs, o)
	}
}

func (r *runner) submit(ctx context.Context, rs *reqState, o op) {
	t0 := time.Now()
	ch, err := r.st.door.SubmitWork(ctx, r.tenant, r.st.work[o.kind], o.in)
	t1 := time.Now()
	if err != nil {
		r.opDone(rs, o, t0, t1, t1, err)
		return
	}
	r.waiters.Add(1)
	go func() {
		defer r.waiters.Done()
		res := <-ch
		if next := r.opDone(rs, o, t0, t1, time.Now(), check(res, o)); next != nil {
			r.submitStage(ctx, rs, next)
		}
	}()
}

// opDone books one op's outcome and advances its request: once every op
// of its stage has completed, to the next stage, which it returns for the
// caller to submit, or to its end.
func (r *runner) opDone(rs *reqState, o op, t0, t1, t2 time.Time, err error) []op {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.opsAttempted++
	if err != nil {
		r.res.opsFailed++
		if errors.Is(err, errWrong) {
			r.res.opsWrong++
		}
		if r.res.firstErr == nil {
			r.res.firstErr = err
		}
		rs.failed = true
	}
	if r.tr != nil {
		r.tr.op(rs.span, o.kind, t0, t1, t2)
	}
	rs.pending--
	if rs.pending > 0 {
		return nil
	}
	if !rs.failed && rs.stage+1 < len(rs.t.stages) {
		rs.stage++
		next := rs.t.stages[rs.stage]
		rs.pending = len(next)
		return next
	}
	r.open--
	lat := t2.Sub(rs.sched)
	if !rs.failed {
		r.done++
		r.res.doneAt = append(r.res.doneAt, t2)
	}
	if rs.failed {
		r.res.reqFailed++
	} else if rs.measured {
		r.res.lat = append(r.res.lat, latSample{at: rs.sched.Sub(r.res.start), ms: ms(lat)})
		if lat <= r.limit {
			r.res.sloMet++
		}
	}
	if r.tr != nil {
		r.tr.request(rs.span, string(rs.t.shape), rs.sched, t2)
	}
	return nil
}

// snapshot is the process's and the VM's cumulative readings at a window
// boundary.
type snapshot struct {
	cpu                         time.Duration
	alloc, cycles, steal, ticks float64
	done                        int
}

// snapshots reads the process at the windows' boundaries.
func (r *runner) snapshots(ctx context.Context, nWindows int, window time.Duration) []snapshot {
	if nWindows < 1 {
		return nil
	}
	var out []snapshot
	for k := 0; k <= nWindows; k++ {
		timer := time.NewTimer(time.Until(r.res.start.Add(r.warm + time.Duration(k)*window)))
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return out
		}
		fs := r.st.fleet.Stats().Fleet
		m := readRuntime()
		r.mu.Lock()
		done := r.done
		r.mu.Unlock()
		steal, ticks := vmSteal()
		out = append(out, snapshot{cpu: cpuTime(), alloc: m.alloc,
			cycles: fs.TotalSimCycles + fs.FallbackCycles, steal: steal, ticks: ticks, done: done})
	}
	return out
}

// windowStats turns the boundary snapshots into per-window readings. Called
// with r.mu unheld once the phase has ended.
func (r *runner) windowStats(snaps []snapshot, window time.Duration) {
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		done := float64(b.done - a.done)
		if done == 0 {
			continue
		}
		from := r.warm + time.Duration(i-1)*window
		var lat []float64
		for _, s := range r.res.lat {
			if s.at >= from && s.at < from+window {
				lat = append(lat, s.ms)
			}
		}
		r.res.windows = append(r.res.windows, windowStat{
			latMS:   lat,
			p50MS:   median(lat),
			cpuMS:   ms(b.cpu-a.cpu) / done,
			allocKB: (b.alloc - a.alloc) / 1024 / done,
			cycles:  (b.cycles - a.cycles) / done,
			steal:   b.steal - a.steal,
			ticks:   b.ticks - a.ticks,
		})
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// vmSteal returns the VM's cumulative steal time (ticks in which a vCPU
// wanted to run while the hypervisor ran something else) and its total CPU
// ticks, from the first line of /proc/stat; zeros where there is none.
func vmSteal() (steal, ticks float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		ticks += x
		if i == 7 {
			steal = x
		}
	}
	return steal, ticks
}

// runtimeReading is the Go runtime's cumulative heap allocation and GC CPU.
type runtimeReading struct{ alloc, gcCPU float64 }

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeReading{alloc: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64()}
}

// sampleHeap samples the heap's object bytes every 10ms until the
// returned stop function is called; stop returns the peak in MB.
func sampleHeap() func() float64 {
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var max uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-tick.C:
			case <-stop:
				peak <- float64(max) / (1 << 20)
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-peak
	}
}
