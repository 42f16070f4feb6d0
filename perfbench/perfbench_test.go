package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"phiopenssl"
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bj
}

// TestBenchmarkJSONMatchesSpecs checks that every workload BENCHMARK.json
// lists is in the spec table and states its rate and latency limit as the
// table sets them.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads", len(bj.Workloads))
	}
	for _, w := range bj.Workloads {
		s, ok := specByName(w.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the spec table", w.Name)
			continue
		}
		rate := fmt.Sprintf("%g/s", s.rate)
		limit := fmt.Sprintf("limit %d ms", s.limit.Milliseconds())
		if !strings.Contains(w.Why, rate) || !strings.Contains(w.Why, limit) {
			t.Errorf("%s: why %q does not state %q and %q", w.Name, w.Why, rate, limit)
		}
	}
}

// TestEveryLayerMetricHasAPrediction checks that the traced run's report
// annotates every per-layer metric BENCHMARK.json names with the
// end-to-end metrics it is predicted to move.
func TestEveryLayerMetricHasAPrediction(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, m := range bj.PerLayer {
		names = append(names, m.Name)
	}
	notes := predictionNotes("rsa-kx", names)
	for _, n := range names {
		if notes[n] == "" {
			t.Errorf("per-layer metric %s has no prediction", n)
		}
	}
}

// TestCheckRejectsCorruptedReference feeds a result against a reference
// with one bit flipped and requires the output check to catch it, both
// directly and through a live stack.
func TestCheckRejectsCorruptedReference(t *testing.T) {
	s, _ := specByName("public-verify")
	m, err := newMaterial(1024)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := warmOps(s, m)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := setUp(s, warm, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if err := st.selfTest(warm[0]); err != nil {
		t.Fatal(err)
	}
	bad := warm[0]
	b := bad.want.Bytes()
	b[0] ^= 0x80
	bad.want = phiopenssl.NatFromBytes(b)
	if err := st.do(bad); !errors.Is(err, errWrong) {
		t.Fatalf("corrupted reference not caught: %v", err)
	}
}

// TestGenerateIsSeeded checks that the same seed gives the same inputs and
// another seed different ones.
func TestGenerateIsSeeded(t *testing.T) {
	s, _ := specByName("tls-blend")
	m, err := newMaterial(1024)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) *inputs {
		in, err := generate(s, m, seed, 2*time.Second, 1)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(5), gen(5), gen(6)
	sig := func(in *inputs) string {
		var sb strings.Builder
		for _, a := range in.paced {
			fmt.Fprintf(&sb, "%d %s %s;", a.at, a.req.shape, a.req.stages[0][0].in.A.Hex())
		}
		return sb.String()
	}
	if sig(a) != sig(b) {
		t.Error("same seed gave different inputs")
	}
	if sig(a) == sig(c) {
		t.Error("different seeds gave the same inputs")
	}
}

// TestP99SkipsStolenGroups checks that latency_p99_ms leaves out the tail
// groups over which the hypervisor stole more of the VM's CPU than over
// the median group, and counts every group where no steal is seen.
func TestP99SkipsStolenGroups(t *testing.T) {
	window := func(ms, steal float64) windowStat {
		lat := make([]float64, tailSamples)
		for i := range lat {
			lat[i] = ms
		}
		return windowStat{latMS: lat, steal: steal, ticks: 100}
	}
	ph := &phaseResult{windows: []windowStat{
		window(10, 0), window(12, 1), window(50, 9), window(11, 0), window(60, 5),
	}}
	if v, calm, all := ph.p99MS(); v != 11 || calm != 3 || all != 5 {
		t.Errorf("p99MS with steal = %v over %d of %d groups, want 11 over 3 of 5", v, calm, all)
	}
	for i := range ph.windows {
		ph.windows[i].steal = 0
	}
	if v, calm, all := ph.p99MS(); v != 12 || calm != 5 || all != 5 {
		t.Errorf("p99MS without steal = %v over %d of %d groups, want 12 over 5 of 5", v, calm, all)
	}
}

// runBinary runs the built benchmark and returns its stdout lines and the
// parsed last line.
func runBinary(t *testing.T, bin string, args ...string) ([]string, result) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("perfbench %v: %v", args, err)
	}
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 {
		t.Fatalf("perfbench %v: correct=%v attempted=%d", args, res.Correct, res.Attempted)
	}
	return lines, res
}

// checkMetrics requires exactly the listed metrics, each with its unit
// and a finite value.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
	}
}

// TestSmoke builds the benchmark and runs every workload for a few
// seconds untraced, then one traced run, checking every metric
// BENCHMARK.json names is printed with its unit and a finite value, and
// that the traced run writes its spans.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bj := readBenchmarkJSON(t)
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		layers[m.Name] = m.Unit
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build: %v", err)
	}
	for _, s := range specs {
		lines, res := runBinary(t, bin, "--workload", s.name, "--seed", "3", "--seconds", "3", "--trace", "0")
		checkMetrics(t, s.name, res.Metrics, e2e)
		for name := range e2e {
			if !strings.Contains(strings.Join(lines, "\n"), name) {
				t.Errorf("%s: %s not printed in the report", s.name, name)
			}
		}
	}
	out := filepath.Join(dir, "spans")
	_, res := runBinary(t, bin, "--workload", "tls-blend", "--seed", "3", "--seconds", "3", "--trace", "1", "--out", out)
	checkMetrics(t, "traced tls-blend", res.Metrics, layers)
	spans, err := os.ReadFile(filepath.Join(out, "spans-tls-blend-seed3.jsonl"))
	if err != nil {
		t.Fatalf("traced run wrote no spans: %v", err)
	}
	names := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(string(spans)), "\n") {
		var sp span
		if err := json.Unmarshal([]byte(l), &sp); err != nil {
			t.Fatalf("span %q: %v", l, err)
		}
		names[sp.Name] = true
	}
	for _, n := range append(spanNames, spanOp) {
		if !names[n] {
			t.Errorf("no %s span written", n)
		}
	}
}
