package phiserve

import (
	"context"
	"sync"
	"testing"
	"time"

	"phiopenssl/internal/bn"
	"phiopenssl/internal/phitrace"
	"phiopenssl/internal/phiwork"
)

// TestCompletedJourneyCarriesPass: a request served by a kernel pass
// resolves a journey holding exactly one "pass" event with the pass's
// duration — the event lands before the lane resolves, since a resolved
// journey drops later events.
func TestCompletedJourneyCarriesPass(t *testing.T) {
	var mu sync.Mutex
	var resolved []*phitrace.Journey
	rec := phitrace.New(phitrace.Config{SampleN: 1, OnResolve: func(j *phitrace.Journey) {
		mu.Lock()
		resolved = append(resolved, j)
		mu.Unlock()
	}})
	s, err := New(Config{Workers: 1, FillDeadline: time.Millisecond, Journeys: rec})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	defer s.Close()

	ch, err := s.SubmitWork(context.Background(), phiwork.RSAPrivateFor(testKey),
		phiwork.Input{A: bn.One().AddUint64(41)}, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res := <-ch; res.Err != nil {
		t.Fatal(res.Err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(resolved) != 1 {
		t.Fatalf("%d journeys resolved, want 1", len(resolved))
	}
	j := resolved[0]
	if j.Outcome() != phitrace.OutcomeCompleted {
		t.Fatalf("journey outcome %v, want completed", j.Outcome())
	}
	passes := 0
	for _, e := range j.Events() {
		if e.Kind != "pass" {
			continue
		}
		passes++
		if e.Dur <= 0 {
			t.Fatalf("pass event without duration: %+v", e)
		}
	}
	if passes != 1 {
		t.Fatalf("completed journey has %d pass events, want 1: %+v", passes, j.Events())
	}
}
