package phiserve

import (
	"testing"
	"time"
)

// fakeClock drives the breaker's injectable now() deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(window int, threshold float64, minSamples int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(Resilience{BreakerWindow: window, BreakerThreshold: threshold,
		BreakerMinSamples: minSamples, BreakerCooldown: cooldown}, clk.now)
	return b, clk
}

// TestBreakerTripsOnFaultRate: the breaker stays closed below minSamples,
// then opens the moment the rolling faulty fraction reaches the threshold.
func TestBreakerTripsOnFaultRate(t *testing.T) {
	b, _ := testBreaker(8, 0.5, 4, time.Second)
	// Three faulty passes: under minSamples, still closed.
	for i := 0; i < 3; i++ {
		b.Record(true, false)
		if !b.Healthy() {
			t.Fatalf("tripped after %d samples, below minSamples", i+1)
		}
	}
	// Fourth sample (clean) brings n to minSamples with 3/4 faulty >= 0.5.
	b.Record(false, false)
	if b.Healthy() {
		t.Fatal("did not trip at 3/4 faulty with threshold 0.5")
	}
	if st, trips := b.snapshot(); st != breakerOpen || trips != 1 {
		t.Fatalf("state %v trips %d after trip, want open/1", st, trips)
	}
	if ok, _ := b.AllowVector(); ok {
		t.Fatal("open breaker allowed the vector path inside cooldown")
	}
	if !b.Degraded() {
		t.Fatal("open breaker inside cooldown not degraded")
	}
}

// TestBreakerCleanPassesKeepItClosed: a healthy device never trips.
func TestBreakerCleanPassesKeepItClosed(t *testing.T) {
	b, _ := testBreaker(8, 0.5, 4, time.Second)
	for i := 0; i < 100; i++ {
		if ok, probe := b.AllowVector(); !ok || probe {
			t.Fatalf("pass %d: closed breaker returned ok=%v probe=%v", i, ok, probe)
		}
		b.Record(false, false)
	}
	if st, trips := b.snapshot(); st != breakerClosed || trips != 0 {
		t.Fatalf("state %v trips %d after clean run", st, trips)
	}
}

// TestBreakerHalfOpenProbeRecovers: after the cooldown exactly one probe
// is admitted; a clean probe closes the breaker with a fresh window.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	b, clk := testBreaker(8, 0.5, 2, time.Second)
	b.Record(true, false)
	b.Record(true, false)
	if b.Healthy() {
		t.Fatal("did not trip")
	}
	clk.advance(time.Second)
	if b.Degraded() {
		t.Fatal("open breaker past cooldown must admit traffic toward a probe")
	}
	ok, probe := b.AllowVector()
	if !ok || !probe {
		t.Fatalf("past cooldown: ok=%v probe=%v, want probe admission", ok, probe)
	}
	// While the probe is in flight, nothing else passes.
	if ok, _ := b.AllowVector(); ok {
		t.Fatal("second batch admitted while the probe is in flight")
	}
	if !b.Degraded() {
		t.Fatal("probing half-open breaker should route new traffic to fallback")
	}
	b.Record(false, true) // clean probe
	if st, trips := b.snapshot(); st != breakerClosed || trips != 1 {
		t.Fatalf("clean probe left state %v trips %d", st, trips)
	}
	// The window was reset: the old fault burst must not count anymore.
	b.Record(true, false)
	if !b.Healthy() {
		t.Fatal("stale pre-trip faults survived the window reset")
	}
}

// TestBreakerFailedProbeReopens: a faulty probe restarts the cooldown and
// counts as another trip.
func TestBreakerFailedProbeReopens(t *testing.T) {
	b, clk := testBreaker(8, 0.5, 2, time.Second)
	b.Record(true, false)
	b.Record(true, false)
	clk.advance(time.Second)
	if _, probe := b.AllowVector(); !probe {
		t.Fatal("no probe admitted")
	}
	b.Record(true, true) // probe faulted
	if st, trips := b.snapshot(); st != breakerOpen || trips != 2 {
		t.Fatalf("failed probe left state %v trips %d, want open/2", st, trips)
	}
	if ok, _ := b.AllowVector(); ok {
		t.Fatal("vector path admitted right after a failed probe")
	}
	// Another full cooldown earns another probe.
	clk.advance(time.Second)
	if _, probe := b.AllowVector(); !probe {
		t.Fatal("no probe after the second cooldown")
	}
	b.Record(false, true)
	if !b.Healthy() {
		t.Fatal("clean second probe did not close the breaker")
	}
}

// TestBreakerIgnoresStragglersWhileOpen: outcomes from passes that started
// before the trip must not perturb the open period or the next window.
func TestBreakerIgnoresStragglersWhileOpen(t *testing.T) {
	b, clk := testBreaker(8, 0.5, 2, time.Second)
	b.Record(true, false)
	b.Record(true, false) // trips
	for i := 0; i < 10; i++ {
		b.Record(true, false) // stragglers
	}
	clk.advance(time.Second)
	if _, probe := b.AllowVector(); !probe {
		t.Fatal("no probe after cooldown")
	}
	b.Record(false, true)
	if st, trips := b.snapshot(); st != breakerClosed || trips != 1 {
		t.Fatalf("stragglers perturbed recovery: state %v trips %d", st, trips)
	}
}

// TestBreakerRollingWindowEvicts: old outcomes age out of the ring, so a
// long-past burst cannot combine with fresh noise to trip.
func TestBreakerRollingWindowEvicts(t *testing.T) {
	b, _ := testBreaker(4, 0.75, 4, time.Second)
	b.Record(true, false)
	b.Record(true, false)
	// Four clean passes push both faults out of the window of 4.
	for i := 0; i < 4; i++ {
		b.Record(false, false)
	}
	b.Record(true, false)
	b.Record(true, false)
	// Window is now [clean clean faulty faulty] = 2/4 < 0.75.
	if !b.Healthy() {
		t.Fatal("evicted outcomes still counted toward the trip")
	}
}
