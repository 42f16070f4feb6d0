package main

import (
	"context"
	"fmt"
	"math/big"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"phiopenssl"
	"phiopenssl/internal/bn"
	"phiopenssl/internal/engine"
	"phiopenssl/internal/knc"
	"phiopenssl/internal/phipool"
	"phiopenssl/internal/phiwork"
	"phiopenssl/internal/vpu"
)

// Per-layer measurements made from outside each layer: timed calls into
// its exported functions. Each is the median of several repetitions after
// a warm-up.

// passStats is one workload kind's batch pass at one width.
type passStats struct {
	pass16MS, pass1MS, simMCycles16, allocKB16 float64
}

// measurePass times Workload.ExecuteBatch on the direct backend with 16
// lanes and with one lane.
func measurePass(w phiwork.Workload, ins []phiwork.Input, reps int) (passStats, error) {
	be := vpu.NewDirect()
	run := func(lanes []phiwork.Input) (time.Duration, float64, float64, error) {
		a0 := heapAllocs()
		start := time.Now()
		out, laneErrs, bd, err := w.ExecuteBatch(be, lanes)
		d := time.Since(start)
		alloc := heapAllocs() - a0
		if err != nil {
			return 0, 0, 0, err
		}
		for i := range out {
			if laneErrs[i] != nil {
				return 0, 0, 0, laneErrs[i]
			}
		}
		return d, knc.KNCVectorCosts.VectorCycles(bd.Counts), alloc, nil
	}
	var ps passStats
	var t16, t1, allocs []float64
	for i := 0; i <= reps; i++ { // the first pass of each width warms up
		d, cycles, alloc, err := run(ins)
		if err != nil {
			return ps, fmt.Errorf("%s pass: %w", w.Kind(), err)
		}
		d1, _, _, err := run(ins[:1])
		if err != nil {
			return ps, fmt.Errorf("%s pass: %w", w.Kind(), err)
		}
		if i == 0 {
			continue
		}
		t16, t1, allocs = append(t16, ms(d)), append(t1, ms(d1)), append(allocs, alloc/1024)
		ps.simMCycles16 = cycles / 1e6
	}
	ps.pass16MS, ps.pass1MS, ps.allocKB16 = median(t16), median(t1), median(allocs)
	return ps, nil
}

// passInputs builds 16 lane inputs for the kind from the material.
func passInputs(m *material, kind phiopenssl.WorkloadKind, seed int64) ([]phiwork.Input, error) {
	rng := stream(seed, 5)
	ins := make([]phiwork.Input, 0, 16)
	for len(ins) < 16 {
		var o op
		switch kind {
		case phiopenssl.WorkloadRSAPrivate:
			o = m.rsaKX(rng)
		case phiopenssl.WorkloadPublic:
			o = m.verify(rng)
		default:
			stages, err := m.dhe(rng)
			if err != nil {
				return nil, err
			}
			for _, st := range stages {
				if st[0].kind == kind {
					o = st[0]
				}
			}
		}
		ins = append(ins, o.in)
	}
	return ins, nil
}

// modexpMS times bn.Nat.ModExp and math/big Exp on the same full-width
// base, exponent and modulus (the key's d and n).
func modexpMS(m *material, seed int64, reps int) (bnMS, bigMS float64) {
	rng := stream(seed, 6)
	x := below(rng, m.n)
	bx, be, bm := fromBig(x), fromBig(m.d), fromBig(m.n)
	var tb, tg []float64
	for i := 0; i <= reps; i++ {
		start := time.Now()
		r1 := bx.ModExp(be, bm)
		d1 := time.Since(start)
		start = time.Now()
		r2 := new(big.Int).Exp(x, m.d, m.n)
		d2 := time.Since(start)
		if !r1.Equal(fromBig(r2)) {
			panic("perfbench: bn.ModExp and math/big disagree")
		}
		if i > 0 {
			tb, tg = append(tb, ms(d1)), append(tg, ms(d2))
		}
	}
	return median(tb), median(tg)
}

// refModexpMS is the same-run host reference: math/big modexp at width.
func refModexpMS(bits, reps int) float64 {
	exp := refModexp(bits)
	var t []float64
	for i := 0; i <= reps; i++ {
		if d := exp(); i > 0 {
			t = append(t, d)
		}
	}
	return median(t)
}

// refModexp returns a function that times one math/big private-exponent
// modexp at width, in ms.
func refModexp(bits int) func() float64 {
	m, err := newMaterial(bits)
	if err != nil {
		panic(err)
	}
	x := below(stream(0, 7), m.n)
	return func() float64 {
		start := time.Now()
		new(big.Int).Exp(x, m.d, m.n)
		return ms(time.Since(start))
	}
}

// sampleRef times one math/big modexp at width every interval until the
// returned stop function is called; stop returns the median in ms. Taken
// beside a phase, it tells a run slowed by the host from one slowed by
// the program: the reference is slow only in the first.
func sampleRef(bits int, every time.Duration) func() float64 {
	exp := refModexp(bits)
	stop := make(chan struct{})
	res := make(chan float64)
	go func() {
		var t []float64
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				t = append(t, exp())
			case <-stop:
				res <- median(t)
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-res
	}
}

// noopWork is a zero-cost workload: its batch pass returns zeros at once,
// so a request's time through a layer is that layer's scheduling cost.
type noopWork struct{}

func (*noopWork) Kind() phiwork.Kind                                         { return "noop" }
func (*noopWork) Class() phiwork.Class                                       { return phiwork.ClassHeavy }
func (*noopWork) Tag() string                                                { return "noop" }
func (*noopWork) RouteBytes() []byte                                         { return []byte("noop") }
func (*noopWork) Bits() int                                                  { return 0 }
func (*noopWork) Validate(phiwork.Input) error                               { return nil }
func (*noopWork) ExecuteScalar(engine.Engine, phiwork.Input) (bn.Nat, error) { return bn.Nat{}, nil }
func (*noopWork) ExecuteBatch(_ vpu.Backend, ins []phiwork.Input) ([]bn.Nat, []error, *phiwork.Breakdown, error) {
	return make([]bn.Nat, len(ins)), make([]error, len(ins)), &phiwork.Breakdown{}, nil
}

// layerCost is one layer's measured cost per request.
type layerCost struct{ wallUS, cpuUS float64 }

// burst submits 16 requests through submit and waits for all; it returns
// the wall time per request of each burst's median and the CPU time per
// request over all bursts.
func burst(bursts int, submit func(done func()) error) (layerCost, error) {
	const n = 16
	var walls []float64
	cpu0 := cpuTime()
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		wg.Add(n)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := submit(wg.Done); err != nil {
				return layerCost{}, err
			}
		}
		wg.Wait()
		walls = append(walls, float64(time.Since(start))/float64(time.Microsecond)/n)
	}
	cpu := float64(cpuTime()-cpu0) / float64(time.Microsecond) / float64(bursts*n)
	return layerCost{wallUS: median(walls), cpuUS: cpu}, nil
}

// noopLayers measures the zero-cost workload through each layer alone:
// the worker pool, one card's scheduler, the two-card fleet, and the
// admission door over that fleet. The caller reports each layer's cost as
// its difference from the layer beneath.
func noopLayers(bursts int) (pool, serve, fleet, admit layerCost, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &noopWork{}
	await := func(ch <-chan phiopenssl.BatchResult, done func()) {
		go func() {
			<-ch
			done()
		}()
	}

	p, err := phipool.NewServer(knc.Default(), 1, 4, func() struct{} { return struct{}{} },
		func(_ struct{}, job func()) { job() }, nil)
	if err != nil {
		return
	}
	p.Start(ctx)
	pool, err = burst(bursts, func(done func()) error { return p.Submit(ctx, done) })
	p.Close()
	if err != nil {
		return
	}

	cfg := fleetConfig(nil)
	srv, err := phiopenssl.NewBatchServer(cfg.Card)
	if err != nil {
		return
	}
	srv.Start(ctx)
	serve, err = burst(bursts, func(done func()) error {
		ch, err := srv.SubmitWork(ctx, w, phiwork.Input{}, phiopenssl.SubmitOpts{})
		if err == nil {
			await(ch, done)
		}
		return err
	})
	srv.Close()
	if err != nil {
		return
	}

	f, err := phiopenssl.NewFleet(cfg)
	if err != nil {
		return
	}
	f.Start(ctx)
	defer f.Close()
	fleet, err = burst(bursts, func(done func()) error {
		ch, err := f.SubmitWork(ctx, w, phiwork.Input{}, phiopenssl.SubmitOpts{})
		if err == nil {
			await(ch, done)
		}
		return err
	})
	if err != nil {
		return
	}
	door := phiopenssl.NewAdmissionController(f, phiopenssl.AdmissionConfig{SLO: doorSLO})
	admit, err = burst(bursts, func(done func()) error {
		ch, err := door.SubmitWork(ctx, "", w, phiwork.Input{})
		if err == nil {
			await(ch, done)
		}
		return err
	})
	return
}

func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// median returns the median of v (0 for none); v is sorted in place.
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for none); v is sorted in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}
