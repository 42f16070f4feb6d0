package phiserve

import (
	"sync"
	"time"
)

// breakerState is the classic three-state circuit-breaker automaton.
type breakerState int

const (
	// breakerClosed: vector path healthy, batches flow normally.
	breakerClosed breakerState = iota
	// breakerOpen: the rolling fault rate crossed the threshold; every
	// submission is served by the scalar fallback until the cooldown
	// elapses.
	breakerOpen
	// breakerHalfOpen: cooldown elapsed; exactly one probe batch tests the
	// vector path. A clean probe closes the breaker, a faulty one reopens
	// it.
	breakerHalfOpen
)

// String implements fmt.Stringer for stats and logs.
func (st breakerState) String() string {
	switch st {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker trips the vector path off when too many recent kernel passes
// were faulty. The unit of observation is one pass (one batch execution
// attempt): pass outcomes enter a rolling window, and when at least
// minSamples outcomes are present and the faulty fraction reaches
// threshold, the breaker opens. After cooldown it half-opens: the next
// batch to ask becomes the probe, and its outcome decides between closed
// (window reset) and another open period.
//
// Breaker is concurrency-safe; workers record outcomes from their own
// goroutines. Its clock is injectable, so tests and the virtual-time
// simulator replay deterministic schedules through the same automaton the
// server runs.
type Breaker struct {
	threshold  float64
	minSamples int
	cooldown   time.Duration
	now        func() time.Time
	// onTransition, when set, is invoked (under b.mu) on every state
	// change with the old and new state. The callback must not call back
	// into the breaker; the server uses it to update the breaker-state
	// gauge and drop an instant event into the trace.
	onTransition func(from, to breakerState)

	mu       sync.Mutex
	state    breakerState
	window   []bool // ring buffer of recent pass outcomes; true = faulty
	idx, n   int
	faults   int
	openedAt time.Time
	probing  bool // a half-open probe batch is in flight
	trips    int64
}

// NewBreaker builds the server's circuit breaker from the Breaker* fields
// of r; zero fields take the Resilience defaults. now is the breaker's
// clock (nil means time.Now).
func NewBreaker(r Resilience, now func() time.Time) *Breaker {
	r = r.WithDefaults()
	if now == nil {
		now = time.Now
	}
	return &Breaker{
		threshold:  r.BreakerThreshold,
		minSamples: r.BreakerMinSamples,
		cooldown:   r.BreakerCooldown,
		now:        now,
		window:     make([]bool, r.BreakerWindow),
	}
}

// AllowVector is asked by a worker about to execute a non-fallback batch:
// it reports whether the vector path may be used, and whether this batch
// is the half-open probe. Called at execution (not admission) time, so the
// verdict reflects the breaker's state after any queueing delay.
func (b *Breaker) AllowVector() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.transitionLocked(breakerHalfOpen)
			b.probing = true
			return true, true
		}
		return false, false
	default: // half-open
		if !b.probing {
			b.probing = true
			return true, true
		}
		return false, false
	}
}

// Healthy reports whether the vector path is currently trusted (closed
// state). Retry loops consult it to stop hammering a sick device
// mid-batch.
func (b *Breaker) Healthy() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

// Degraded reports whether new submissions should bypass batching and go
// straight to the scalar fallback: the breaker is open inside its
// cooldown, or half-open with the probe already in flight. (Open past the
// cooldown admits batching — the next executed batch becomes the probe.)
func (b *Breaker) Degraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return false
	case breakerOpen:
		return b.now().Sub(b.openedAt) < b.cooldown
	default:
		return b.probing
	}
}

// record feeds one pass outcome back. probe must be the flag AllowVector
// returned for this pass.
func (b *Breaker) Record(faulty, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if faulty {
			b.transitionLocked(breakerOpen)
			b.openedAt = b.now()
			b.trips++
			return
		}
		// Clean probe: close and start from a fresh window, so the fault
		// burst that tripped the breaker cannot immediately re-trip it.
		// The probe's own outcome is not pushed — the new window starts
		// empty.
		b.transitionLocked(breakerClosed)
		b.resetWindowLocked()
		return
	}
	if b.state == breakerOpen {
		// Stragglers from before the trip; the open period already decided
		// the path, don't let them perturb the next window.
		return
	}
	b.pushLocked(faulty)
	if b.state == breakerClosed && b.n >= b.minSamples &&
		float64(b.faults) >= b.threshold*float64(b.n) {
		b.transitionLocked(breakerOpen)
		b.openedAt = b.now()
		b.trips++
		b.resetWindowLocked()
	}
}

// transitionLocked changes state and fires the observer hook. Callers hold
// b.mu.
func (b *Breaker) transitionLocked(to breakerState) {
	from := b.state
	b.state = to
	if from != to && b.onTransition != nil {
		b.onTransition(from, to)
	}
}

func (b *Breaker) pushLocked(faulty bool) {
	if b.n == len(b.window) {
		if b.window[b.idx] {
			b.faults--
		}
	} else {
		b.n++
	}
	b.window[b.idx] = faulty
	if faulty {
		b.faults++
	}
	b.idx = (b.idx + 1) % len(b.window)
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.n, b.faults = 0, 0, 0
}

// Trips returns the lifetime count of closed->open transitions (failed
// probes included).
func (b *Breaker) Trips() int64 {
	_, trips := b.snapshot()
	return trips
}

// snapshot returns the current state and lifetime trip count.
func (b *Breaker) snapshot() (breakerState, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.trips
}
