package phiadmit

import "time"

// Verdict is the door's answer to one request.
type Verdict uint8

const (
	// Admit lets the request into the backend.
	Admit Verdict = iota
	// ShedOverload rejects it because the delay estimate already eats its
	// budget (ErrShedOverload).
	ShedOverload
	// ShedTenant rejects it because its tenant's bucket is empty during a
	// brownout (ErrShedTenant).
	ShedTenant
)

// Decision is one door decision.
type Decision struct {
	Verdict Verdict
	// Transition is "enter" or "exit" when this decision moved the
	// brownout state, "" otherwise.
	Transition string
	// Charged reports that an admission spent a bucket token; the
	// Controller gives it back if the backend then refuses the request.
	Charged bool
}

// Bucket is one tenant's brownout fair-queuing token bucket, refilled
// lazily at its weighted share of Config.Capacity.
type Bucket struct {
	rate   float64 // tokens per second during brownout
	burst  float64
	tokens float64
	last   time.Time
}

// refill lazily credits the bucket for the time since the last touch.
func (b *Bucket) refill(now time.Time) {
	if b.last.IsZero() {
		b.last = now
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	b.tokens += dt * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
}

// Door is the admission decision itself: brownout hysteresis over the
// delay estimate and the SLO burn rate, the overload shed at
// (1-Margin)×SLO, and brownout fair queuing on the tenant's bucket. It
// reads no clock and takes no lock: the Controller calls it under its
// mutex with the host clock, the virtual-time simulator with simulated
// time, so both run the same policy.
type Door struct {
	cfg      Config // defaulted
	brownout bool
}

// NewDoor builds a door from cfg's SLO, BurstWindow, Brownout*, Margin and
// Burn* settings, with the Controller's defaults; BurnEnter defaults on
// only when cfg.Journeys is set.
func NewDoor(cfg Config) *Door {
	return &Door{cfg: cfg.withDefaults()}
}

// Bucket returns a full bucket refilling at rate tokens per second and
// holding rate×BurstWindow tokens (at least 1). rate <= 0 disables fair
// queuing for the tenant.
func (d *Door) Bucket(rate float64) Bucket {
	burst := rate * d.cfg.BurstWindow.Seconds()
	if burst < 1 {
		burst = 1
	}
	// Start full: a cold system admits a burst cleanly.
	return Bucket{rate: rate, burst: burst, tokens: burst}
}

// Decide judges one request with budget slo arriving at now, given the
// backend's delay estimate and the journey stream's fast-window burn rate
// (0 without a recorder).
func (d *Door) Decide(now time.Time, est time.Duration, burn float64, slo time.Duration, b *Bucket) Decision {
	var dec Decision
	// Hysteresis: enter at the high threshold, leave only below the low
	// one. Between the two the current state holds, so the door cannot
	// flap when the estimate hovers at a threshold. The SLO burn rate is a
	// second entry signal — sustained deadline misses show up in the
	// journey stream before the point-in-time estimate looks scary — and
	// exit additionally requires the burn to have cooled.
	enter := est >= d.cfg.BrownoutEnter ||
		(d.cfg.BurnEnter > 0 && burn >= d.cfg.BurnEnter)
	exit := est <= d.cfg.BrownoutExit &&
		(d.cfg.BurnEnter <= 0 || burn <= d.cfg.BurnExit)
	if !d.brownout && enter {
		d.brownout = true
		dec.Transition = "enter"
	} else if d.brownout && exit {
		d.brownout = false
		dec.Transition = "exit"
	}
	// Overload shed: if the backlog alone eats the budget (less the error
	// margin), the request cannot finish in time — reject now.
	if float64(est) > float64(slo)*(1-d.cfg.Margin) {
		dec.Verdict = ShedOverload
		return dec
	}
	// Brownout fair queuing: while overloaded, each tenant spends tokens
	// refilled at its weighted share of Capacity. Outside brownout the
	// buckets are not charged, so light load is never shaped.
	if d.brownout && b.rate > 0 {
		b.refill(now)
		if b.tokens < 1 {
			dec.Verdict = ShedTenant
			return dec
		}
		b.tokens--
		dec.Charged = true
	}
	return dec
}

// SLO is the door's default per-request budget.
func (d *Door) SLO() time.Duration { return d.cfg.SLO }
