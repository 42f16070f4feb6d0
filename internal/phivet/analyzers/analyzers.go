// Package analyzers holds the phivet suite: six analyzers, each
// machine-checking a discipline the serving stack otherwise enforces only
// at runtime (and only on the paths a given test run happens to
// exercise). Every analyzer is grounded in a real past bug class; see the
// individual files and the "Static analysis & invariants" section of
// DESIGN.md for the mapping from analyzer to runtime invariant.
package analyzers

import "phiopenssl/internal/phivet/analysis"

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		FinishOnce,
		MetricName,
		JourneyTerm,
		LockBlock,
		PhaseCharge,
		ServeLayer,
	}
}
