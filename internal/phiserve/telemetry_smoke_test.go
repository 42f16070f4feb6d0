package phiserve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"phiopenssl/internal/telemetry"
)

// TestTelemetrySmoke is the end-to-end observability check: a thousand
// requests stream through a traced server, and afterwards (a) the trace
// buffer exports as valid Chrome trace-event JSON with exactly one
// begin/end request span pair per submitted request, and (b) the
// Prometheus endpoint scrape shows per-phase cycle attribution summing to
// the total simulated cycle counter within 0.1%.
func TestTelemetrySmoke(t *testing.T) {
	const n = 1008 // 63 full 16-lane batches
	nc := 24
	cs, want, _ := perOpAnswers(t, testKey, nc, 700)

	tel := telemetry.NewWithTrace(0)
	s, err := New(Config{
		Workers:      4,
		FillDeadline: 50 * time.Millisecond,
		Telemetry:    tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	resps := make([]<-chan Result, n)
	for i := 0; i < n; i++ {
		ch, err := submitRSA(context.Background(), s, testKey, cs[i%nc])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		resps[i] = ch
	}
	for i, ch := range resps {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !res.M.Equal(want[i%nc]) {
			t.Fatalf("request %d: wrong plaintext", i)
		}
	}
	s.Close()

	// --- Trace: valid Chrome trace JSON, one resolve span per request.
	var buf bytes.Buffer
	if err := tel.Tracer.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Pid  int64   `json:"pid"`
			Tid  int64   `json:"tid"`
			ID   string  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid Chrome trace-event JSON: %v", err)
	}
	if dropped := tel.Tracer.Dropped(); dropped != 0 {
		t.Fatalf("trace buffer dropped %d events; capacity too small for the smoke run", dropped)
	}
	begins := map[string]int{}
	ends := map[string]int{}
	var passes, threads int
	for _, ev := range trace.TraceEvents {
		switch {
		case ev.Ph == "b" && ev.Cat == "request":
			begins[ev.ID]++
		case ev.Ph == "e" && ev.Cat == "request":
			ends[ev.ID]++
		case ev.Ph == "X" && ev.Name == "pass":
			passes++
		case ev.Ph == "M" && ev.Name == "thread_name":
			threads++
		}
	}
	if len(ends) != n {
		t.Fatalf("trace has %d distinct resolve spans, want %d", len(ends), n)
	}
	for id, c := range ends {
		if c != 1 {
			t.Fatalf("request %s resolved %d times in the trace", id, c)
		}
		if begins[id] != 1 {
			t.Fatalf("request %s has %d begin spans", id, begins[id])
		}
	}
	st := s.Stats()
	if int64(passes) != st.Batches {
		t.Fatalf("trace has %d pass slices, stats report %d batches", passes, st.Batches)
	}
	if threads < 2 { // scheduler track + at least one worker track
		t.Fatalf("trace names only %d threads", threads)
	}

	// --- Metrics: scrape the live endpoint and cross-check attribution.
	rec := httptest.NewRecorder()
	telemetry.Handler(tel).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	body := rec.Body.String()
	var phaseSum, total, completed float64
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "phiserve_phase_sim_cycles_total{"):
			phaseSum += metricValue(t, line)
		case strings.HasPrefix(line, "phiserve_sim_cycles_total "):
			total = metricValue(t, line)
		case strings.HasPrefix(line, "phiserve_requests_completed_total "):
			completed = metricValue(t, line)
		}
	}
	if completed != n {
		t.Fatalf("scraped %v completed requests, want %d", completed, n)
	}
	if total <= 0 {
		t.Fatalf("no simulated cycles scraped:\n%s", body)
	}
	if rel := math.Abs(phaseSum-total) / total; rel > 0.001 {
		t.Fatalf("phase cycle attribution %v vs total %v: relative error %v > 0.1%%",
			phaseSum, total, rel)
	}
}

// metricValue parses the sample value off one Prometheus text line.
func metricValue(t *testing.T, line string) float64 {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		t.Fatalf("bad metric line %q: %v", line, err)
	}
	return v
}
