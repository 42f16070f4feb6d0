package main

import (
	"os"
	"runtime"
	"strings"
)

// runStamp identifies the host and build a result was measured on, next
// to a math/big modexp timed in the same run, so results from different
// hosts compare as ratios to that reference.
func runStamp(refMS1024 float64) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu":                         cpuModel(),
		"nproc":                       runtime.NumCPU(),
		"gomaxprocs":                  runtime.GOMAXPROCS(0),
		"go":                          runtime.Version(),
		"commit":                      commit,
		"ref.math_big_modexp_ms.1024": refMS1024,
	}
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "unknown"
// where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
