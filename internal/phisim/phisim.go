// Package phisim is the virtual-time simulator behind experiments A6–A10.
//
// The live stack batches by host wall clock, which makes its latency and
// throughput non-deterministic and unfit for reproducible tables. phisim
// replays the same serving policy in simulated machine time, with seeded
// Poisson arrivals and every kernel pass costed by real metered cycle
// counts supplied by the caller:
//
//   - each arrival is labelled with a tenant (by share) and a key
//     (uniform), and goes to its key's home card;
//   - a batch opens per key on its first arrival and seals on the
//     sixteenth lane or at the fill deadline; batches still open when the
//     trace ends flush at its last arrival, as Server.Close flushes open
//     batches;
//   - sealed batches run in seal order on the earliest-free executor of
//     their card (arrivals queue without bound, so overloaded points show
//     latency growth rather than backpressure).
//
// The optional pieces run the live policy code, not copies of it:
//
//   - Faults: per-lane pass faults, bounded back-to-back retries and the
//     scalar fallback, gated by a phiserve.Breaker on the simulated clock
//     (consulted at execution, so while it is open whole batches degrade);
//   - Steal: a batch whose home card is busy runs on the card with the
//     globally earliest-free executor; homes come from phifleet's ring;
//   - Admission: a phiadmit.Door decides every arrival against its home
//     card's delay estimate, and lanes past their deadline are dropped
//     before their pass;
//   - Journeys: a phitrace.Recorder driven by the simulated clock records
//     every request's journey, burn rate and incidents.
package phisim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
)

// Tenant is one traffic class in the simulated mix.
type Tenant struct {
	ID string
	// Share is the fraction of offered traffic this tenant generates
	// (shares are normalized over the mix).
	Share float64
	// Weight is the tenant's brownout fair-queuing weight; <= 0 means 1.
	Weight float64
	// SLO is the tenant's latency budget; zero inherits Door.SLO.
	SLO time.Duration
}

// Faults is the fault and resilience policy of a simulation.
type Faults struct {
	// LaneRate is the probability that one live lane of one kernel pass
	// is corrupted (and caught by the re-encryption check).
	LaneRate float64
	// ScalarCost is the simulated cycle cost of one scalar fallback op.
	ScalarCost float64
	// Resilience supplies MaxRetries and the breaker parameters, with the
	// live server's defaults; the breaker cooldown elapses in simulated
	// time.
	Resilience phiserve.Resilience
}

// Config fixes the machine, the measured pass costs and the policy of one
// simulation.
type Config struct {
	// Machine is one simulated card (all cards are identical).
	Machine knc.Machine
	// Workers is the number of batch executors per card (default 1).
	Workers int
	// CostPerFill[f] is the simulated cycle cost of one kernel pass with f
	// live lanes (index 1..BatchSize).
	CostPerFill [phiserve.BatchSize + 1]float64
	// Cards is the fleet size and Keys the number of distinct keys; both
	// must be at least 1.
	Cards, Keys int
	// FillDeadline is the partial-batch fill window.
	FillDeadline time.Duration
	// Tenants is the traffic mix; empty means one implicit tenant "all".
	Tenants []Tenant
	// Faults, when set, injects lane faults.
	Faults *Faults
	// Steal enables work stealing between cards.
	Steal bool
	// Door holds the admission settings. Its SLO sets every request's
	// deadline (tenants may override) even when Admission is off.
	Door phiadmit.Config
	// Admission puts the door in front of the cards and drops expired
	// lanes before their pass.
	Admission bool
	// Journeys, when set, drives a recorder built from it (Clock and
	// Telemetry are replaced: the recorder runs on simulated time and
	// registers no metrics).
	Journeys *phitrace.Config
}

// TenantPoint is one tenant's slice of an operating point.
type TenantPoint struct {
	ID                                                string
	Offered, Admitted, ShedOverload, ShedTenant, Good int
	// P99 is the tenant's 99th-percentile completion latency.
	P99 time.Duration
	// Burn is the tenant's fast-window SLO burn rate at run end.
	Burn float64
}

// IncidentBrief is one captured incident reduced to what the reports
// print: what fired, when (simulated ms since run start), and for a shed
// storm which tenant and card it named.
type IncidentBrief struct {
	Kind   string
	AtMS   float64
	Tenant string
	Card   int
	Sheds  int
}

// Point is one simulated operating point.
type Point struct {
	// Offered is the arrival rate in requests per simulated second.
	Offered  float64
	Requests int

	Admitted     int // requests past the door (all of them without admission)
	ShedOverload int // door rejections: estimate exceeded the SLO budget
	ShedTenant   int // door rejections: brownout fair queuing
	Expired      int // admitted lanes dropped before their pass
	Completed    int // requests served (vector or fallback)
	Good         int // completed within their SLO
	// ExpiredExecuted counts lanes whose pass started after their
	// deadline; admission keeps it at 0.
	ExpiredExecuted int
	// Brownouts counts transitions into brownout.
	Brownouts int

	// MeanFill is the mean live lanes per executed batch; FillHist[f]
	// counts kernel passes (retries included) with f live lanes.
	MeanFill float64
	FillHist [phiserve.BatchSize + 1]int
	// CyclesPerOp is the amortized simulated cost per request.
	CyclesPerOp float64
	// Throughput and Goodput are completed and good requests per simulated
	// second, first arrival to last completion.
	Throughput, Goodput float64
	// Latencies run from arrival to completion, over completed requests.
	MeanLatency, P50Latency, P99Latency time.Duration
	// Utilization is the fraction of executor time spent serving batches.
	Utilization float64

	// Steals counts batches executed away from their home card.
	Steals int

	// Fault accounting: lane-passes that failed verification, extra
	// retry passes, requests served by the scalar fallback (and their
	// share), breaker trips, and failed vector passes survived per
	// request.
	FaultedLanes, RetryPasses, FallbackOps, BreakerTrips int64
	FallbackFraction, MeanAttempts                       float64

	Tenants []TenantPoint

	// Journeys is the driven recorder (nil without Config.Journeys), with
	// its stream counters, aggregate fast-window burn rate at run end and
	// captured incidents, oldest first.
	Journeys  *phitrace.Recorder
	Counts    phitrace.Counts
	BurnAll   float64
	Incidents []IncidentBrief
}

// workers is the per-card executor count with its default.
func (c Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Capacity is the saturated throughput in requests per simulated second:
// every executor of every card completing BatchSize lanes per full pass.
func (c Config) Capacity() float64 {
	pass := c.Machine.Latency(c.workers(), c.CostPerFill[phiserve.BatchSize])
	return float64(c.Cards) * float64(c.workers()) * float64(phiserve.BatchSize) / pass
}

// request is one arrival.
type request struct {
	at, deadline float64
	tenant, key  int
	journey      *phitrace.Journey
}

// batch is one open or sealed per-key batch.
type batch struct {
	reqs   []int
	sealAt float64
	card   int // home card
}

// sim is the state of one run.
type sim struct {
	cfg      Config
	rng      *rand.Rand
	workers  int
	tenants  []Tenant
	slos     []float64 // per-tenant budget, seconds
	reqs     []request
	homes    []int
	free     [][]float64 // free[c][w]: card c executor w's next-free time
	open     []*batch    // per key
	dl       float64
	fullPass float64

	door    *phiadmit.Door
	buckets []phiadmit.Bucket

	breakers   []*phiserve.Breaker
	brkNow     float64
	maxRetries int
	scalarLat  float64

	rec  *phitrace.Recorder
	base time.Time
	vnow float64 // latest simulated time told to the recorder

	pt                                         Point
	latencies                                  []float64
	tenantLat                                  [][]float64
	busy, lastDone, cycles, fillSum, attempted float64
	batches                                    int
}

func secs(t float64) time.Duration { return time.Duration(t * float64(time.Second)) }

// Simulate runs n Poisson arrivals at offered requests per simulated
// second through the configured policy. The rng drives arrivals and lane
// faults, so identical inputs replay identically; it is consulted only
// where a choice exists (a tenant when Tenants is set, a key when Keys >
// 1, lane faults when Faults is set).
func (c Config) Simulate(rng *rand.Rand, n int, offered float64) (Point, error) {
	if n < 1 || offered <= 0 {
		return Point{}, fmt.Errorf("phisim: need n >= 1 arrivals at positive load")
	}
	if c.Cards < 1 || c.Keys < 1 {
		return Point{}, fmt.Errorf("phisim: need at least one card and one key")
	}
	for f := 1; f <= phiserve.BatchSize; f++ {
		if c.CostPerFill[f] <= 0 {
			return Point{}, fmt.Errorf("phisim: CostPerFill[%d] not measured", f)
		}
	}
	if f := c.Faults; f != nil {
		if f.LaneRate < 0 || f.LaneRate > 1 {
			return Point{}, fmt.Errorf("phisim: lane fault rate %g out of [0,1]", f.LaneRate)
		}
		if f.ScalarCost <= 0 {
			return Point{}, fmt.Errorf("phisim: ScalarCost not measured")
		}
	}
	s := newSim(c, rng, n, offered)
	for i := range s.reqs {
		s.flushDue(s.reqs[i].at)
		s.arrive(i)
	}
	// The trace ends like Server.Close: every batch still open flushes at
	// the last arrival instead of waiting out its fill deadline.
	last := s.reqs[n-1].at
	for _, b := range s.open {
		if b != nil {
			b.sealAt = last
		}
	}
	s.flushDue(last)
	return s.finish(), nil
}

func newSim(c Config, rng *rand.Rand, n int, offered float64) *sim {
	s := &sim{
		cfg:     c,
		rng:     rng,
		workers: c.workers(),
		tenants: c.Tenants,
		homes:   make([]int, c.Keys),
		free:    make([][]float64, c.Cards),
		open:    make([]*batch, c.Keys),
		dl:      c.FillDeadline.Seconds(),
		base:    time.Unix(0, 0).UTC(),
	}
	s.fullPass = s.passDur(phiserve.BatchSize)
	for card := range s.free {
		s.free[card] = make([]float64, s.workers)
	}
	if c.Cards > 1 {
		s.homes = phifleet.KeyHomes(c.Cards, c.Keys)
	}
	if len(s.tenants) == 0 {
		s.tenants = []Tenant{{ID: "all", Share: 1, Weight: 1}}
	}

	if c.Journeys != nil {
		rc := *c.Journeys
		rc.Telemetry = nil
		rc.Clock = func() time.Time { return s.clock(s.vnow) }
		s.rec = phitrace.New(rc)
		s.pt.Journeys = s.rec
	}
	dc := c.Door
	dc.Journeys = s.rec
	s.door = phiadmit.NewDoor(dc)

	// Tenant buckets: each refills at its weighted share of the hardware
	// capacity.
	capacity := c.Capacity()
	var sumShare, sumW float64
	weights := make([]float64, len(s.tenants))
	s.slos = make([]float64, len(s.tenants))
	for i, tn := range s.tenants {
		sumShare += tn.Share
		weights[i] = tn.Weight
		if weights[i] <= 0 {
			weights[i] = 1
		}
		sumW += weights[i]
		s.slos[i] = s.door.SLO().Seconds()
		if tn.SLO > 0 {
			s.slos[i] = tn.SLO.Seconds()
		}
	}
	s.buckets = make([]phiadmit.Bucket, len(s.tenants))
	for i := range s.buckets {
		s.buckets[i] = s.door.Bucket(capacity * weights[i] / sumW)
	}

	if f := c.Faults; f != nil {
		s.maxRetries = f.Resilience.WithDefaults().MaxRetries
		s.scalarLat = c.Machine.Latency(s.workers, f.ScalarCost)
		s.breakers = make([]*phiserve.Breaker, c.Cards)
		for card := range s.breakers {
			s.breakers[card] = phiserve.NewBreaker(f.Resilience, func() time.Time { return s.clock(s.brkNow) })
		}
	}

	// Poisson arrivals, labelled with a tenant (by share) and a key.
	s.reqs = make([]request, n)
	t := 0.0
	for i := range s.reqs {
		t += rng.ExpFloat64() / offered
		tn := 0
		if len(c.Tenants) > 0 {
			u := rng.Float64() * sumShare
			for u > s.tenants[tn].Share && tn < len(s.tenants)-1 {
				u -= s.tenants[tn].Share
				tn++
			}
		}
		key := 0
		if c.Keys > 1 {
			key = rng.Intn(c.Keys)
		}
		s.reqs[i] = request{at: t, deadline: t + s.slos[tn], tenant: tn, key: key}
	}

	s.pt.Offered, s.pt.Requests = offered, n
	s.pt.Tenants = make([]TenantPoint, len(s.tenants))
	for i, tn := range s.tenants {
		s.pt.Tenants[i].ID = tn.ID
	}
	s.latencies = make([]float64, 0, n)
	s.tenantLat = make([][]float64, len(s.tenants))
	return s
}

// clock maps simulated seconds onto the recorder's and breaker's time line.
func (s *sim) clock(t float64) time.Time { return s.base.Add(secs(t)) }

// vtime tells the recorder's clock that simulated time t has been seen.
func (s *sim) vtime(t float64) time.Time {
	if t > s.vnow {
		s.vnow = t
	}
	return s.clock(t)
}

func (s *sim) passDur(fill int) float64 {
	return s.cfg.Machine.Latency(s.workers, s.cfg.CostPerFill[fill])
}

// earliest is card's earliest-free executor.
func (s *sim) earliest(card int) int {
	fr := s.free[card]
	w := 0
	for k := 1; k < len(fr); k++ {
		if fr[k] < fr[w] {
			w = k
		}
	}
	return w
}

// estimate is phiserve.EstimatedDelay in simulated time: the fill wait,
// plus the wait for card's first free executor, plus one full pass.
func (s *sim) estimate(card int, now float64) float64 {
	wait := s.free[card][s.earliest(card)] - now
	if wait < 0 {
		wait = 0
	}
	return s.dl + wait + s.fullPass
}

// flushDue seals and runs every open batch whose fill window closed at or
// before now, in seal order.
func (s *sim) flushDue(now float64) {
	for {
		best := -1
		for k, b := range s.open {
			if b != nil && b.sealAt <= now && (best == -1 || b.sealAt < s.open[best].sealAt) {
				best = k
			}
		}
		if best == -1 {
			return
		}
		b := s.open[best]
		s.open[best] = nil
		s.run(b)
	}
}

// arrive puts arrival i through the door and into its key's batch.
func (s *sim) arrive(i int) {
	r := &s.reqs[i]
	tp := &s.pt.Tenants[r.tenant]
	tp.Offered++
	card := s.homes[r.key]
	slo := secs(s.slos[r.tenant])
	var at time.Time
	if s.rec != nil {
		at = s.vtime(r.at)
		r.journey = s.rec.BeginAt(at, s.tenants[r.tenant].ID, fmt.Sprintf("key-%d", r.key),
			s.clock(r.deadline), slo)
		r.journey.EventAt(at, "route", card, "home")
	}
	if s.cfg.Admission {
		est := s.estimate(card, r.at)
		var estNote string
		if s.rec != nil {
			estNote = fmt.Sprintf("est=%.1fms", est*1e3)
			r.journey.EventAt(at, "door", -1, estNote)
		}
		burn := s.rec.BurnRate("", s.rec.FastWindow())
		d := s.door.Decide(s.clock(r.at), secs(est), burn, slo, &s.buckets[r.tenant])
		if d.Transition == "enter" {
			s.pt.Brownouts++
		}
		if d.Transition != "" {
			s.rec.TriggerAt(at, "brownout-"+d.Transition,
				map[string]any{"est_ms": est * 1e3, "burn": burn})
		}
		switch d.Verdict {
		case phiadmit.ShedOverload:
			s.pt.ShedOverload++
			tp.ShedOverload++
			r.journey.FinishAt(at, phitrace.OutcomeShedOverload, estNote)
			return
		case phiadmit.ShedTenant:
			s.pt.ShedTenant++
			tp.ShedTenant++
			r.journey.FinishAt(at, phitrace.OutcomeShedTenant, "brownout fair queue")
			return
		}
	}
	s.pt.Admitted++
	tp.Admitted++
	b := s.open[r.key]
	if b == nil {
		b = &batch{sealAt: r.at + s.dl, card: card}
		s.open[r.key] = b
	}
	b.reqs = append(b.reqs, i)
	r.journey.EventAt(at, "submit", card, "")
	if len(b.reqs) == phiserve.BatchSize {
		s.open[r.key] = nil
		b.sealAt = r.at
		s.run(b)
	}
}

// run executes one sealed batch: it picks the executor (stealing when the
// home card is busy), drops lanes already past their deadline, and serves
// the rest.
func (s *sim) run(b *batch) {
	card := b.card
	w := s.earliest(card)
	if s.cfg.Steal && s.free[card][w] > b.sealAt {
		best, bw := card, w
		for c := range s.free {
			if cw := s.earliest(c); s.free[c][cw] < s.free[best][bw] {
				best, bw = c, cw
			}
		}
		if best != card {
			card, w = best, bw
			s.pt.Steals++
		}
	}
	start := b.sealAt
	if s.free[card][w] > start {
		start = s.free[card][w]
	}
	if s.rec != nil {
		sealAt := s.vtime(b.sealAt)
		note := fmt.Sprintf("fill=%d", len(b.reqs))
		for _, i := range b.reqs {
			s.reqs[i].journey.EventAt(sealAt, "seal", b.card, note)
		}
	}
	live := b.reqs
	if s.cfg.Admission {
		// The pre-execution checkpoints collapse into one judgment at the
		// pass start: a lane that would begin past its deadline is dropped.
		live = live[:0:0]
		for _, i := range b.reqs {
			r := &s.reqs[i]
			if r.deadline >= start {
				live = append(live, i)
				continue
			}
			s.pt.Expired++
			if s.rec != nil {
				at := s.vtime(start)
				r.journey.EventAt(at, "checkpoint", card, "pre-pass")
				r.journey.FinishAt(at, phitrace.OutcomeExpired, "deadline passed in backlog")
			}
		}
		if len(live) == 0 {
			return
		}
	}
	for _, i := range live {
		if start > s.reqs[i].deadline {
			s.pt.ExpiredExecuted++
		}
	}
	s.batches++
	s.fillSum += float64(len(live))
	done := s.execute(card, w, start, live)
	s.free[card][w] = done
	s.busy += done - start
	if done > s.lastDone {
		s.lastDone = done
	}
}

// execute serves live lanes from start on card's executor w and returns
// when the executor frees up.
func (s *sim) execute(card, w int, start float64, live []int) float64 {
	if s.cfg.Faults == nil {
		fill := len(live)
		done := start + s.passDur(fill)
		s.cycles += s.cfg.CostPerFill[fill]
		s.pt.FillHist[fill]++
		s.complete(live, card, w, start, done, 0, false)
		return done
	}
	// Retry passes run back-to-back on the batch's executor (backoff is
	// host-time hygiene, invisible in simulated time). When a pass faults
	// some lanes, the last arrivals stay pending: which lanes fault is
	// symmetric, and a fixed rule keeps the replay deterministic.
	brk := s.breakers[card]
	s.brkNow = start
	t := start
	unresolved := len(live)
	resolve := func(k int, from, at float64, attempts int, fallback bool) {
		s.complete(live[unresolved-k:unresolved], card, w, from, at, attempts, fallback)
		unresolved -= k
	}
	serveScalar := func(k, attempts int) {
		for i := 0; i < k; i++ {
			t += s.scalarLat
			resolve(1, t-s.scalarLat, t, attempts, true)
		}
		s.pt.FallbackOps += int64(k)
		s.cycles += float64(k) * s.cfg.Faults.ScalarCost
	}
	allow, probe := brk.AllowVector()
	if !allow {
		serveScalar(len(live), 0)
		return t
	}
	pending, attempt := len(live), 0
	for {
		faults := 0
		for l := 0; l < pending; l++ {
			if s.rng.Float64() < s.cfg.Faults.LaneRate {
				faults++
			}
		}
		from := t
		t += s.passDur(pending)
		s.brkNow = t
		s.cycles += s.cfg.CostPerFill[pending]
		s.pt.FillHist[pending]++
		if attempt > 0 {
			s.pt.RetryPasses++
		}
		brk.Record(faults > 0, probe)
		probe = false
		resolve(pending-faults, from, t, attempt, false)
		s.pt.FaultedLanes += int64(faults)
		if faults == 0 {
			return t
		}
		attempt++
		if attempt > s.maxRetries || !brk.Healthy() {
			serveScalar(faults, attempt)
			return t
		}
		pending = faults
	}
}

// complete resolves lanes served from start to done by card's executor w
// after attempts failed vector passes.
func (s *sim) complete(lanes []int, card, w int, start, done float64, attempts int, fallback bool) {
	var note string
	var passAt time.Time
	if s.rec != nil {
		note = fmt.Sprintf("worker=%d fill=%d", w, len(lanes))
		passAt = s.vtime(start)
	}
	s.attempted += float64(attempts) * float64(len(lanes))
	for _, i := range lanes {
		r := &s.reqs[i]
		if s.rec != nil {
			if fallback {
				r.journey.EventAt(passAt, "fallback", card, note)
			} else {
				r.journey.EventDurAt(passAt, "pass", card, note, secs(done-start))
			}
		}
		lat := done - r.at
		s.latencies = append(s.latencies, lat)
		s.tenantLat[r.tenant] = append(s.tenantLat[r.tenant], lat)
		s.pt.Completed++
		if done <= r.deadline {
			s.pt.Good++
			s.pt.Tenants[r.tenant].Good++
		}
		if s.rec != nil {
			r.journey.FinishAt(s.vtime(done), phitrace.OutcomeCompleted, note)
		}
	}
}

// percentile is the p-th percentile of sorted latencies.
func percentile(sorted []float64, p int) time.Duration {
	k := len(sorted)
	if k == 0 {
		return 0
	}
	return secs(sorted[(p*k+99)/100-1])
}

// finish reduces the run to its Point.
func (s *sim) finish() Point {
	pt := s.pt
	n := float64(pt.Requests)
	if s.batches > 0 {
		pt.MeanFill = s.fillSum / float64(s.batches)
	}
	pt.CyclesPerOp = s.cycles / n
	pt.FallbackFraction = float64(pt.FallbackOps) / n
	pt.MeanAttempts = s.attempted / n
	for _, b := range s.breakers {
		pt.BreakerTrips += b.Trips()
	}
	if span := s.lastDone - s.reqs[0].at; span > 0 {
		pt.Throughput = float64(pt.Completed) / span
		pt.Goodput = float64(pt.Good) / span
		pt.Utilization = s.busy / (span * float64(s.workers) * float64(s.cfg.Cards))
	}
	sort.Float64s(s.latencies)
	var sum float64
	for _, l := range s.latencies {
		sum += l
	}
	if k := len(s.latencies); k > 0 {
		pt.MeanLatency = secs(sum / float64(k))
	}
	pt.P50Latency = percentile(s.latencies, 50)
	pt.P99Latency = percentile(s.latencies, 99)
	for i, ls := range s.tenantLat {
		sort.Float64s(ls)
		pt.Tenants[i].P99 = percentile(ls, 99)
	}
	if s.rec == nil {
		return pt
	}
	pt.Counts = s.rec.Counts()
	pt.BurnAll = s.rec.BurnRate("", s.rec.FastWindow())
	for i, tn := range s.tenants {
		pt.Tenants[i].Burn = s.rec.BurnRate(tn.ID, s.rec.FastWindow())
	}
	incs := s.rec.Incidents()
	for i := len(incs) - 1; i >= 0; i-- { // newest-first -> oldest-first
		inc := incs[i]
		b := IncidentBrief{Kind: inc.Kind, Card: -1,
			AtMS: float64(inc.At.Sub(s.base)) / float64(time.Millisecond)}
		if tn, ok := inc.Fields["tenant"].(string); ok {
			b.Tenant = tn
		}
		if c, ok := inc.Fields["card"].(int); ok {
			b.Card = c
		}
		if n, ok := inc.Fields["sheds_in_window"].(int); ok {
			b.Sheds = n
		}
		pt.Incidents = append(pt.Incidents, b)
	}
	return pt
}
