package phisim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"phiopenssl/internal/knc"
	"phiopenssl/internal/phiadmit"
	"phiopenssl/internal/phifleet"
	"phiopenssl/internal/phiserve"
	"phiopenssl/internal/phitrace"
)

// flatCosts is a synthetic lane-uniform cost table: every fill charges
// the same full-pass price, like the real padded kernel.
func flatCosts(pass float64) [phiserve.BatchSize + 1]float64 {
	var c [phiserve.BatchSize + 1]float64
	for f := 1; f <= phiserve.BatchSize; f++ {
		c[f] = pass
	}
	return c
}

// loadConfig is the single-card scheduler shape of A6.
func loadConfig(deadline time.Duration) Config {
	return Config{
		Machine: knc.Default(), Workers: 8, CostPerFill: flatCosts(2e6),
		Cards: 1, Keys: 1, FillDeadline: deadline,
	}
}

// faultConfig is loadConfig with A7's fault policy at the given lane rate.
func faultConfig(rate float64) Config {
	c := loadConfig(time.Millisecond)
	c.Faults = &Faults{
		LaneRate:   rate,
		ScalarCost: 3e7, // scalar non-CRT op ~15x one 16-lane pass
		Resilience: phiserve.Resilience{MaxRetries: 2},
	}
	return c
}

// fleetConfig is the A8 shape: eight keys over the ring.
func fleetConfig(cards int, steal bool) Config {
	c := loadConfig(0)
	c.Workers = 4
	c.Cards, c.Keys, c.Steal = cards, 8, steal
	return c
}

// admissionConfig is the A9 shape: a two-key mix so batches fill near 16
// lanes at nominal load, a 40ms SLO, and the gold/silver/bronze tenants.
// The estimate's floor is FillDeadline + one full pass (~19.4ms), so the
// brownout thresholds sit above it: brownout can always exit, and light
// load never trips it.
func admissionConfig() Config {
	return Config{
		Machine: knc.Default(), Workers: 8, CostPerFill: flatCosts(9.5e6),
		Cards: 1, Keys: 2, FillDeadline: 4 * time.Millisecond,
		Door: phiadmit.Config{
			SLO:           40 * time.Millisecond,
			Margin:        0.25,
			BrownoutEnter: 28 * time.Millisecond,
			BrownoutExit:  21 * time.Millisecond,
		},
		Admission: true,
		Tenants: []Tenant{
			{ID: "gold", Share: 0.5, Weight: 10},
			{ID: "silver", Share: 0.3, Weight: 3},
			{ID: "bronze", Share: 0.2, Weight: 1},
		},
	}
}

// journeyConfig is the A10 shape: the A9 machine over two ring-routed
// cards and four keys, driving a recorder.
func journeyConfig(rc phitrace.Config) Config {
	c := admissionConfig()
	c.Cards, c.Keys = 2, 4
	c.Journeys = &rc
	return c
}

func TestSimulateValidation(t *testing.T) {
	c := loadConfig(time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Simulate(rng, 0, 100); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := c.Simulate(rng, 10, 0); err == nil {
		t.Fatal("zero load accepted")
	}
	bad := c
	bad.CostPerFill[9] = 0
	if _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("unmeasured fill cost accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	c := loadConfig(time.Millisecond)
	a, err := c.Simulate(rand.New(rand.NewSource(42)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Simulate(rand.New(rand.NewSource(42)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	d, err := c.Simulate(rand.New(rand.NewSource(43)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, d) {
		t.Fatal("different seeds produced identical points")
	}
}

// TestSimulateFillTracksLoad: heavy traffic fills every lane, starved
// traffic with a short deadline dispatches near-singleton batches.
func TestSimulateFillTracksLoad(t *testing.T) {
	c := loadConfig(time.Millisecond)
	// Offer requests far faster than 16 per full pass.
	pass := c.Machine.Latency(c.Workers, c.CostPerFill[phiserve.BatchSize])
	heavy, err := c.Simulate(rand.New(rand.NewSource(7)), 4000, 200*phiserve.BatchSize/pass)
	if err != nil {
		t.Fatal(err)
	}
	if heavy.MeanFill < 15 {
		t.Fatalf("heavy load mean fill %.2f, want ~16", heavy.MeanFill)
	}
	// Starved: mean inter-arrival 100x the deadline → batches dispatch
	// alone.
	light, err := c.Simulate(rand.New(rand.NewSource(7)), 400, 10)
	if err != nil {
		t.Fatal(err)
	}
	if light.MeanFill > 1.5 {
		t.Fatalf("starved load mean fill %.2f, want ~1", light.MeanFill)
	}
	// Lane-uniform pass cost: fuller batches amortize to cheaper ops.
	if heavy.CyclesPerOp >= light.CyclesPerOp {
		t.Fatalf("full batches cost %.0f cycles/op, singletons %.0f; batching should amortize",
			heavy.CyclesPerOp, light.CyclesPerOp)
	}
}

// TestSimulateDeadlineTradeoff: at moderate load, stretching the fill
// deadline buys fill (throughput) and pays latency — the A6 knob.
func TestSimulateDeadlineTradeoff(t *testing.T) {
	short, err := loadConfig(500*time.Microsecond).Simulate(rand.New(rand.NewSource(11)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	long, err := loadConfig(16*time.Millisecond).Simulate(rand.New(rand.NewSource(11)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if long.MeanFill <= short.MeanFill {
		t.Fatalf("longer deadline fill %.2f not above shorter %.2f", long.MeanFill, short.MeanFill)
	}
	if long.CyclesPerOp >= short.CyclesPerOp {
		t.Fatalf("longer deadline cycles/op %.0f not below shorter %.0f", long.CyclesPerOp, short.CyclesPerOp)
	}
	if long.MeanLatency <= short.MeanLatency {
		t.Fatalf("longer deadline latency %v not above shorter %v", long.MeanLatency, short.MeanLatency)
	}
}

func TestSimulateSanity(t *testing.T) {
	c := loadConfig(time.Millisecond)
	pt, err := c.Simulate(rand.New(rand.NewSource(3)), 1000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Requests != 1000 || pt.Offered != 20000 {
		t.Fatalf("point echo wrong: %+v", pt)
	}
	var batches, reqs int
	for f := 1; f <= phiserve.BatchSize; f++ {
		batches += pt.FillHist[f]
		reqs += f * pt.FillHist[f]
	}
	if reqs != 1000 || batches < 1000/phiserve.BatchSize {
		t.Fatalf("fill histogram inconsistent: %v", pt.FillHist)
	}
	if pt.FillHist[0] != 0 {
		t.Fatal("zero-fill batch recorded")
	}
	if pt.Throughput <= 0 || pt.Utilization <= 0 || pt.Utilization > 1 {
		t.Fatalf("implausible throughput/utilization: %+v", pt)
	}
	if pt.P50Latency > pt.P99Latency || pt.MeanLatency <= 0 {
		t.Fatalf("latency ordering wrong: %+v", pt)
	}
	// Every request waits at least one kernel pass.
	minPass := time.Duration(c.Machine.Latency(c.Workers, c.CostPerFill[1]) * float64(time.Second))
	if pt.P50Latency < minPass {
		t.Fatalf("p50 %v below a single pass %v", pt.P50Latency, minPass)
	}
}

func TestFaultsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := faultConfig(-0.1).Simulate(rng, 10, 100); err == nil {
		t.Fatal("negative fault rate accepted")
	}
	if _, err := faultConfig(1.1).Simulate(rng, 10, 100); err == nil {
		t.Fatal("fault rate > 1 accepted")
	}
	bad := faultConfig(0)
	bad.Faults.ScalarCost = 0
	if _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("unmeasured scalar cost accepted")
	}
}

// TestFaultsZeroRateMatchesNoFaults: at fault rate zero the fault path
// must reproduce the fault-free run exactly — same batches, same costs,
// same latencies.
func TestFaultsZeroRateMatchesNoFaults(t *testing.T) {
	fp, err := faultConfig(0).Simulate(rand.New(rand.NewSource(21)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := loadConfig(time.Millisecond).Simulate(rand.New(rand.NewSource(21)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp, lp) {
		t.Fatalf("fault rate 0 diverged from no faults:\n%+v\n%+v", fp, lp)
	}
}

func TestFaultsDeterministic(t *testing.T) {
	c := faultConfig(1e-2)
	a, err := c.Simulate(rand.New(rand.NewSource(33)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Simulate(rand.New(rand.NewSource(33)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestFaultsCostMore: a moderate fault rate must show up as detected
// lanes, retry passes and a higher amortized cost, while the breaker stays
// closed.
func TestFaultsCostMore(t *testing.T) {
	clean, err := faultConfig(0).Simulate(rand.New(rand.NewSource(5)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := faultConfig(1e-2).Simulate(rand.New(rand.NewSource(5)), 3000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.FaultedLanes == 0 || faulty.RetryPasses == 0 {
		t.Fatalf("rate 1e-2 over 3000 ops produced no fault activity: %+v", faulty)
	}
	if faulty.CyclesPerOp <= clean.CyclesPerOp {
		t.Fatalf("faults came for free: %.0f vs clean %.0f cycles/op",
			faulty.CyclesPerOp, clean.CyclesPerOp)
	}
	if faulty.BreakerTrips != 0 {
		t.Fatalf("breaker tripped at a 1e-2 lane rate (pass fault rate ~0.15): %+v", faulty)
	}
	if faulty.MeanAttempts <= 0 {
		t.Fatalf("retries happened but MeanAttempts = %v", faulty.MeanAttempts)
	}
}

// TestFaultsHighRateTripsBreakerAndDegrades: near-certain pass faults
// must trip the breaker and push most traffic onto the scalar fallback —
// the graceful-degradation end of the A7 sweep.
func TestFaultsHighRateTripsBreakerAndDegrades(t *testing.T) {
	c := faultConfig(0.5)
	pt, err := c.Simulate(rand.New(rand.NewSource(9)), 2000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if pt.BreakerTrips < 1 {
		t.Fatalf("breaker never tripped at lane rate 0.5: %+v", pt)
	}
	if pt.FallbackFraction < 0.5 {
		t.Fatalf("fallback fraction %.2f, want most traffic degraded", pt.FallbackFraction)
	}
	if pt.Throughput <= 0 || pt.MeanLatency <= 0 {
		t.Fatalf("degraded mode still must make progress: %+v", pt)
	}
	if pt.CyclesPerOp < c.Faults.ScalarCost*pt.FallbackFraction {
		t.Fatalf("cycles/op %.0f implausibly low for %.0f%% scalar traffic",
			pt.CyclesPerOp, 100*pt.FallbackFraction)
	}
}

// TestFleetScalingAcceptance is the A8 acceptance shape: at a fixed
// offered load saturating 3.6× one card, a 4-card fleet with stealing
// sustains ≥3× the single card's throughput, and its mean batch fill
// stays within 20% of the single-card value.
func TestFleetScalingAcceptance(t *testing.T) {
	const n = 4000
	one := fleetConfig(1, true)
	four := fleetConfig(4, true)
	pass := one.Machine.Latency(one.Workers, one.CostPerFill[phiserve.BatchSize])
	capacity := float64(one.Workers*phiserve.BatchSize) / pass
	deadline := time.Duration(0.5 * pass * float64(time.Second))
	one.FillDeadline, four.FillDeadline = deadline, deadline
	offered := 3.6 * capacity

	p1, err := one.Simulate(rand.New(rand.NewSource(1)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := four.Simulate(rand.New(rand.NewSource(1)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	if p4.Throughput < 3*p1.Throughput {
		t.Fatalf("4-card throughput %.0f < 3x single-card %.0f", p4.Throughput, p1.Throughput)
	}
	if d := math.Abs(p4.MeanFill - p1.MeanFill); d > 0.2*p1.MeanFill {
		t.Fatalf("4-card mean fill %.2f drifted beyond 20%% of single-card %.2f", p4.MeanFill, p1.MeanFill)
	}
	if p4.Steals == 0 {
		t.Fatalf("saturated hot card never shed work: %+v", p4)
	}

	// Stealing is what closes the gap: without it the hottest card's
	// backlog drags fleet throughput below the stealing fleet's.
	noSteal := fleetConfig(4, false)
	noSteal.FillDeadline = deadline
	pn, err := noSteal.Simulate(rand.New(rand.NewSource(1)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	if pn.Throughput >= p4.Throughput {
		t.Fatalf("stealing did not help: with %.0f, without %.0f", p4.Throughput, pn.Throughput)
	}
	if pn.P99Latency <= p4.P99Latency {
		t.Fatalf("stealing did not cut tail latency: with %v, without %v", p4.P99Latency, pn.P99Latency)
	}
}

// TestFleetValidation: bad fleet parameters error instead of simulating
// garbage.
func TestFleetValidation(t *testing.T) {
	c := fleetConfig(2, true)
	c.FillDeadline = time.Millisecond
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Simulate(rng, 0, 100); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := c.Simulate(rng, 10, 0); err == nil {
		t.Fatal("offered=0 must error")
	}
	bad := c
	bad.CostPerFill[7] = 0
	if _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("missing cost must error")
	}
	bad = c
	bad.Cards = 0
	if _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("cards=0 must error")
	}
	bad = c
	bad.Keys = 0
	if _, err := bad.Simulate(rng, 10, 100); err == nil {
		t.Fatal("keys=0 must error")
	}
}

// TestAdmissionOverloadInvariants pins the A9 acceptance criteria at 4x
// offered load: with admission on, goodput is at least twice the
// admission-off goodput, the p99 of admitted requests stays inside the
// SLO, and no expired lane ever reaches execution; with admission off the
// metastable collapse is visible (expired lanes do execute).
func TestAdmissionOverloadInvariants(t *testing.T) {
	c := admissionConfig()
	offered := 4 * c.Capacity()
	const n = 60000
	on, err := c.Simulate(rand.New(rand.NewSource(7)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	c.Admission = false
	off, err := c.Simulate(rand.New(rand.NewSource(7)), n, offered)
	if err != nil {
		t.Fatal(err)
	}
	if on.ExpiredExecuted != 0 {
		t.Fatalf("admission on: %d expired lanes reached execution", on.ExpiredExecuted)
	}
	if on.P99Latency > c.Door.SLO {
		t.Fatalf("admission on: p99 of admitted %v exceeds SLO %v", on.P99Latency, c.Door.SLO)
	}
	if on.Goodput < 2*off.Goodput {
		t.Fatalf("admission on goodput %.0f < 2x off goodput %.0f", on.Goodput, off.Goodput)
	}
	if off.ExpiredExecuted == 0 {
		t.Fatal("admission off: expected expired lanes to reach execution under overload")
	}
	// The door's accounting must balance: every arrival is admitted, shed
	// at the overload gate, or shed by fair queuing.
	if got := on.Admitted + on.ShedOverload + on.ShedTenant; got != n {
		t.Fatalf("door accounting: %d of %d arrivals", got, n)
	}
	// Brownout fair queuing bites the low-weight tenant hardest.
	byID := map[string]TenantPoint{}
	for _, tp := range on.Tenants {
		byID[tp.ID] = tp
	}
	g, b := byID["gold"], byID["bronze"]
	if g.Offered == 0 || b.Offered == 0 {
		t.Fatalf("tenant mix missing traffic: %+v", on.Tenants)
	}
	gShed := float64(g.ShedTenant) / float64(g.Offered)
	bShed := float64(b.ShedTenant) / float64(b.Offered)
	if bShed <= gShed {
		t.Fatalf("bronze shed rate %.3f not above gold %.3f under brownout", bShed, gShed)
	}
}

// TestAdmissionLightLoadAdmitsEverything: at half capacity the door is
// invisible — nothing sheds, nothing expires, goodput tracks the offered
// rate.
func TestAdmissionLightLoadAdmitsEverything(t *testing.T) {
	c := admissionConfig()
	pt, err := c.Simulate(rand.New(rand.NewSource(7)), 20000, 0.5*c.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if pt.ShedOverload != 0 || pt.ShedTenant != 0 {
		t.Fatalf("light load shed traffic: %+v", pt)
	}
	if pt.Expired != 0 || pt.ExpiredExecuted != 0 {
		t.Fatalf("light load expired lanes: %+v", pt)
	}
	if pt.Good != pt.Requests {
		t.Fatalf("light load: %d of %d good", pt.Good, pt.Requests)
	}
}

// TestJourneysShedStormIncident pins the A10 acceptance criteria: a 4x
// overload produces a shed-storm incident naming the dominant shedding
// tenant and a real card, every arrival resolves exactly one journey,
// tail sampling keeps all anomalous journeys, and the burn gauges read
// far above budget.
func TestJourneysShedStormIncident(t *testing.T) {
	var anomalous int64 // every resolved journey with an anomaly
	c := journeyConfig(phitrace.Config{RingSize: 512, SampleN: 16,
		OnResolve: func(j *phitrace.Journey) {
			if j.Anomaly() != "" {
				anomalous++
			}
		}})
	const n = 30000
	pt, err := c.Simulate(rand.New(rand.NewSource(7)), n, 4*c.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if got := int(pt.Counts.Resolved); got != n {
		t.Fatalf("resolved %d journeys for %d arrivals", got, n)
	}
	if pt.Counts.TerminalDups != 0 {
		t.Fatalf("%d duplicate terminals", pt.Counts.TerminalDups)
	}
	if pt.Admitted+pt.ShedOverload+pt.ShedTenant != n {
		t.Fatalf("door accounting: %d+%d+%d != %d", pt.Admitted, pt.ShedOverload, pt.ShedTenant, n)
	}
	if pt.ShedOverload+pt.ShedTenant == 0 {
		t.Fatal("4x overload shed nothing; the storm cannot form")
	}
	var storm *IncidentBrief
	for i := range pt.Incidents {
		if pt.Incidents[i].Kind == "shed-storm" {
			storm = &pt.Incidents[i]
			break
		}
	}
	if storm == nil {
		t.Fatalf("no shed-storm incident in %+v", pt.Incidents)
	}
	if storm.Tenant == "" || storm.Card < 0 || storm.Card >= c.Cards {
		t.Fatalf("storm incident must name tenant and card: %+v", *storm)
	}
	if pt.BurnAll <= 1 {
		t.Fatalf("aggregate burn %.2f at 4x overload, want > 1", pt.BurnAll)
	}
	cn := pt.Counts
	if cn.KeptAnomalous+cn.KeptSampled+cn.Discarded != cn.Resolved {
		t.Fatalf("sampling accounting does not balance: %+v", cn)
	}
	// Tail sampling keeps every anomalous journey, and 1-in-16 sampling
	// of normal completions makes the discarded share dominate the
	// sampled share.
	if anomalous == 0 || anomalous != cn.KeptAnomalous {
		t.Fatalf("%d anomalous journeys resolved, %d kept", anomalous, cn.KeptAnomalous)
	}
	if cn.KeptSampled*8 > cn.Discarded {
		t.Fatalf("sampling kept too much: %+v", cn)
	}
	// The incident buffer also saw the brownout transition.
	seen := map[string]bool{}
	for _, b := range pt.Incidents {
		seen[b.Kind] = true
	}
	if !seen["brownout-enter"] {
		t.Fatalf("no brownout-enter incident: %+v", pt.Incidents)
	}
}

// TestJourneysLightLoadQuiet: at half capacity nothing sheds, no shed
// storm fires, and every completion is good. The run uses two keys, which
// the ring places one per card: A10's four keys land 3:1, and the hot
// card's three partial-fill streams saturate it well below half the
// fleet's full-fill capacity (the A10 table's 1x row).
func TestJourneysLightLoadQuiet(t *testing.T) {
	c := journeyConfig(phitrace.Config{SampleN: 16})
	c.Keys = 2
	if homes := phifleet.KeyHomes(c.Cards, c.Keys); homes[0] == homes[1] {
		t.Fatalf("ring placed both keys on card %d", homes[0])
	}
	pt, err := c.Simulate(rand.New(rand.NewSource(7)), 10000, 0.5*c.Capacity())
	if err != nil {
		t.Fatal(err)
	}
	if pt.ShedOverload != 0 || pt.ShedTenant != 0 {
		t.Fatalf("light load shed traffic: %+v", pt)
	}
	for _, b := range pt.Incidents {
		if b.Kind == "shed-storm" {
			t.Fatalf("light load shed-storm incident: %+v", pt.Incidents)
		}
	}
	if pt.Good != pt.Completed {
		t.Fatalf("light load: %d of %d completions good", pt.Good, pt.Completed)
	}
}
