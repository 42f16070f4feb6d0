package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"phiopenssl"
)

// The serving stack under test, built the way a TLS terminator would: the
// A11 live-leg topology (a two-card fleet, one worker per card) behind an
// SLO-aware admission door, fed single requests through SubmitWork.

// Tenants of the door: paced traffic, and saturation drains with set-up.
// Both carry a budget long enough that nothing sheds or expires: the
// workload's latency limit is judged by the benchmark (slo_met_frac), not
// enforced by the door, so a host stall slows requests instead of failing
// them and every run completes every op.
const (
	tenantPaced = "paced"
	tenantDrain = "drain"
	doorSLO     = 5 * time.Minute
)

type stack struct {
	fleet  *phiopenssl.Fleet
	door   *phiopenssl.AdmissionController
	work   map[phiopenssl.WorkloadKind]phiopenssl.Workload
	cancel context.CancelFunc
}

// newStack parses the key, interns the spec's workloads and starts the
// fleet and door. rec, when non-nil, records a journey for every request.
func newStack(s spec, rec *phiopenssl.JourneyRecorder) (*stack, error) {
	key, err := phiopenssl.UnmarshalPrivateKey(keyText(1024))
	if err != nil {
		return nil, fmt.Errorf("parse key: %w", err)
	}
	group := phiopenssl.DHModp1024()
	work := map[phiopenssl.WorkloadKind]phiopenssl.Workload{}
	for _, k := range s.kinds() {
		switch k {
		case phiopenssl.WorkloadRSAPrivate:
			work[k] = phiopenssl.RSAPrivateWorkload(key)
		case phiopenssl.WorkloadPSSSign:
			work[k] = phiopenssl.PSSSignWorkload(key)
		case phiopenssl.WorkloadPublic:
			work[k] = phiopenssl.RSAPublicWorkload(&key.PublicKey)
		case phiopenssl.WorkloadDHEFixed:
			work[k] = phiopenssl.DHEFixedWorkload(group)
		case phiopenssl.WorkloadDHEVar:
			work[k] = phiopenssl.DHEVarWorkload(group)
		}
	}
	fleet, err := phiopenssl.NewFleet(fleetConfig(rec))
	if err != nil {
		return nil, fmt.Errorf("build fleet: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fleet.Start(ctx)
	door := phiopenssl.NewAdmissionController(fleet, phiopenssl.AdmissionConfig{
		SLO: doorSLO,
		Tenants: []phiopenssl.AdmissionTenant{
			{ID: tenantPaced, Weight: 1},
			{ID: tenantDrain, Weight: 1},
		},
		Journeys: rec,
		// Brownout is entered on the delay estimate alone, with or
		// without journeys, so traced and untraced runs shed alike.
		BurnEnter: -1,
	})
	return &stack{fleet: fleet, door: door, work: work, cancel: cancel}, nil
}

// fleetConfig is the A11 live-leg topology: two cards of one worker each,
// hot keys replicated over both, on the direct backend.
func fleetConfig(rec *phiopenssl.JourneyRecorder) phiopenssl.FleetConfig {
	return phiopenssl.FleetConfig{
		Cards:    2,
		Replicas: 2,
		MaxHops:  3,
		Card: phiopenssl.BatchServerConfig{
			Workers:      1,
			QueueDepth:   4,
			FillDeadline: 2 * time.Millisecond,
			Backend:      phiopenssl.BackendDirect,
		},
		Journeys: rec,
	}
}

// do submits one op under the drain tenant and waits for its checked
// result.
func (st *stack) do(o op) error {
	ch, err := st.door.SubmitWork(context.Background(), tenantDrain, st.work[o.kind], o.in)
	if err != nil {
		return err
	}
	res := <-ch
	return check(res, o)
}

// warm completes the ops concurrently, one goroutine each.
func (st *stack) warm(ops []op) error {
	errs := make(chan error, len(ops))
	for _, o := range ops {
		go func(o op) { errs <- st.do(o) }(o)
	}
	var first error
	for range ops {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close drains the fleet gracefully and releases its goroutines.
func (st *stack) close() {
	st.fleet.Close()
	st.cancel()
}

// check compares a result bit for bit with the op's reference answer.
func check(res phiopenssl.BatchResult, o op) error {
	if res.Err != nil {
		return res.Err
	}
	if !res.M.Equal(o.want) {
		return fmt.Errorf("%w: %s result differs from the reference", errWrong, o.kind)
	}
	return nil
}

// setUp is the timed set-up: parse the key, intern the workloads, build
// and start the fleet and door, and complete one request of each kind.
func setUp(s spec, warmups []op, rec *phiopenssl.JourneyRecorder) (*stack, time.Duration, error) {
	start := time.Now()
	st, err := newStack(s, rec)
	if err != nil {
		return nil, 0, err
	}
	if err := st.warm(warmups); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("set-up request: %w", err)
	}
	return st, time.Since(start), nil
}

// selfTest submits a real op against a deliberately corrupted reference
// and requires the output check to reject it.
func (st *stack) selfTest(o op) error {
	bad := o
	b := o.want.Bytes()
	b[len(b)-1] ^= 1
	bad.want = phiopenssl.NatFromBytes(b)
	if err := st.do(bad); !errors.Is(err, errWrong) {
		return fmt.Errorf("output check accepted a corrupted reference")
	}
	return st.do(o)
}
