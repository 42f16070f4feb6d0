package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"phiopenssl"
	"phiopenssl/internal/phitrace"
)

// Tracing for the traced run. The benchmark keeps its own spans in
// memory, around its calls into the stack: a request (a whole handshake
// in tls-blend), its ops, and for each op the SubmitWork call and the wait
// for its result. The program's journey recorder, switched on through its
// public config with every journey kept, timestamps what happens inside
// the stack; each journey is matched to the SubmitWork call it began in
// and contributes fill, queue and pass spans under that op's result wait.

// span is one traced interval. Spans of one request share its root's ID
// through Parent links.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Note   string    `json:"note,omitempty"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
	// StartUS and EndUS are offsets from the start of the phase, filled
	// when the spans are written.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// Span names, one per layer boundary the benchmark can see.
const (
	spanRequest = "loadgen.request" // scheduled send to last result (loadgen)
	spanOp      = "loadgen.op"      // op ready to its result (loadgen pacer)
	spanSubmit  = "phiadmit.submit" // the SubmitWork call: door, route, intake
	spanResult  = "phiserve.result" // SubmitWork return to result received
	spanFill    = "phiserve.fill"   // journey: intake to batch seal
	spanQueue   = "phipool.queue"   // journey: seal to worker dequeue
	spanPass    = "phiwork.pass"    // journey: the kernel pass
)

// submitCall is one SubmitWork call interval and the result span under
// which its journey's stages nest.
type submitCall struct {
	t0, t1 time.Time
	result int64
	kind   phiopenssl.WorkloadKind
}

// tracer is guarded by runner.mu for spans and calls; journeys arrive on
// the recorder's goroutines under their own lock.
type tracer struct {
	seq   int64
	spans []span
	calls []submitCall

	jmu      sync.Mutex
	journeys []phitrace.View
}

func (t *tracer) newID() int64 {
	t.seq++
	return t.seq
}

// recorder returns the program's journey recorder configured to keep
// every journey and hand each one to the tracer.
func (t *tracer) recorder() *phiopenssl.JourneyRecorder {
	return phiopenssl.NewJourneyRecorder(phiopenssl.JourneyConfig{
		SampleN:        1,
		StormThreshold: -1,
		OnResolve: func(j *phiopenssl.Journey) {
			v := j.View()
			t.jmu.Lock()
			t.journeys = append(t.journeys, v)
			t.jmu.Unlock()
		},
	})
}

func (t *tracer) op(req int64, kind phiopenssl.WorkloadKind, t0, t1, t2 time.Time) {
	id := t.newID()
	res := t.newID()
	t.spans = append(t.spans,
		span{ID: id, Parent: req, Name: spanOp, Note: string(kind), Start: t0, End: t2},
		span{ID: t.newID(), Parent: id, Name: spanSubmit, Start: t0, End: t1},
		span{ID: res, Parent: id, Name: spanResult, Start: t1, End: t2})
	t.calls = append(t.calls, submitCall{t0: t0, t1: t1, result: res, kind: kind})
}

func (t *tracer) request(id int64, shape string, sched, done time.Time) {
	t.spans = append(t.spans, span{ID: id, Name: spanRequest, Note: shape, Start: sched, End: done})
}

// stages is the stage split read from the journeys.
type stages struct {
	fillMS, queueMS, lightQueueMS, passMS []float64
	matched, unmatched                    int
}

// attach matches every journey to its SubmitWork call, adds its fill,
// queue and pass spans, and returns the stage split. Call it once the
// phase has ended.
//
// The pass runs from the worker's dequeue to the lane's completion. The
// journey's own "pass" event cannot be used: the scheduler appends it
// after resolving the lanes of the pass, and a resolved journey drops
// further events, so completed lanes never carry it.
func (t *tracer) attach() stages {
	var st stages
	sort.Slice(t.calls, func(i, j int) bool { return t.calls[i].t0.Before(t.calls[j].t0) })
	t.jmu.Lock()
	journeys := t.journeys
	t.jmu.Unlock()
	type pass struct {
		card       int
		start, end time.Time
	}
	var passes []pass
	used := make([]bool, len(t.calls))
	for _, v := range journeys {
		i := t.match(v, used)
		if i < 0 {
			st.unmatched++
			continue
		}
		call := t.calls[i]
		st.matched++
		var submit, seal, dequeue, end time.Time
		card := 0
		for _, e := range v.Events {
			at := v.Start.Add(time.Duration(e.TUS * float64(time.Microsecond)))
			switch e.Kind {
			case "submit":
				if submit.IsZero() {
					submit = at
				}
			case "seal":
				seal = at
			case "dequeue":
				dequeue, card = at, e.Card
			case "end:completed":
				end = at
			}
		}
		if submit.IsZero() || seal.IsZero() || dequeue.IsZero() || end.IsZero() {
			continue // shed, expired or served by the scalar fallback
		}
		t.spans = append(t.spans,
			span{ID: t.newID(), Parent: call.result, Name: spanFill, Start: submit, End: seal},
			span{ID: t.newID(), Parent: call.result, Name: spanQueue, Start: seal, End: dequeue},
			span{ID: t.newID(), Parent: call.result, Name: spanPass, Start: dequeue, End: end})
		st.fillMS = append(st.fillMS, ms(seal.Sub(submit)))
		st.queueMS = append(st.queueMS, ms(dequeue.Sub(seal)))
		if call.kind == phiopenssl.WorkloadPublic {
			st.lightQueueMS = append(st.lightQueueMS, ms(dequeue.Sub(seal)))
		}
		passes = append(passes, pass{card: card, start: dequeue, end: end})
	}
	// Lanes of one pass are dequeued together; a card's one worker starts
	// its passes at least a pass apart. Count each pass once.
	sort.Slice(passes, func(i, j int) bool {
		if passes[i].card != passes[j].card {
			return passes[i].card < passes[j].card
		}
		return passes[i].start.Before(passes[j].start)
	})
	for i, p := range passes {
		if i > 0 && p.card == passes[i-1].card && p.start.Sub(passes[i-1].start) < time.Millisecond {
			continue
		}
		st.passMS = append(st.passMS, ms(p.end.Sub(p.start)))
	}
	return st
}

// match returns the unused SubmitWork call of the journey's workload
// kind whose interval holds the journey's start, or -1. Calls overlap only
// when a handshake stage is submitted while the pacer submits, and then
// rarely for the same kind; two such calls may swap journeys, which moves
// stage spans between two ops submitted at the same moment.
func (t *tracer) match(v phitrace.View, used []bool) int {
	i := sort.Search(len(t.calls), func(i int) bool { return !t.calls[i].t0.Before(v.Start) })
	// Calls starting after the journey cannot hold it; scan back over
	// those that started before it.
	for j := i - 1; j >= 0 && v.Start.Sub(t.calls[j].t0) < time.Second; j-- {
		c := t.calls[j]
		if !used[j] && string(c.kind) == v.Workload && !c.t1.Before(v.Start) {
			used[j] = true
			return j
		}
	}
	return -1
}

// selfTimes returns, per span name, the summed self time in ms: each
// span's duration minus the part of it its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int64][]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		out[s.Name] += ms(s.End.Sub(s.Start) - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p *span, kids []*span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, x := range ivs {
		switch {
		case i == 0:
			cur = x
		case x.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = x
		case x.b.After(cur.b):
			cur.b = x.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// write stores the spans as JSON lines, times relative to origin.
func (t *tracer) write(path string, origin time.Time) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		s.StartUS = float64(s.Start.Sub(origin)) / float64(time.Microsecond)
		s.EndUS = float64(s.End.Sub(origin)) / float64(time.Microsecond)
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
