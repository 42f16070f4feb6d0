package analyzers

import (
	"go/ast"

	"phiopenssl/internal/phivet/analysis"
)

// FinishOnce enforces the exactly-once resolution discipline of the
// serving stack: a request's result must flow through the designated
// finish path (Server.finish in phiserve.go, the done-CAS single
// resolution point). With stall respawns, fault retries, work stealing and
// breaker fallback, several execution paths can race to answer the same
// request; the CAS in finish is what keeps delivery exactly-once and the
// completion accounting single-homed. A direct send on a request's resp
// channel, or a direct write to its done flag, reintroduces the
// double-resolution bug class PR 5's cross-card stealing was built
// around.
//
// Concretely, in the serving packages (phiserve, phifleet, phiadmit),
// outside a function named finish:
//
//   - `x.resp <- v` (and close(x.resp)) on a struct field named resp is
//     flagged: results are delivered only by finish, and the channel is
//     never closed (exactly one value, buffered).
//   - `x.done.Store/Swap/CompareAndSwap(...)` on a struct field named
//     done is flagged: only finish may win the resolution race.
//     (done.Load is fine everywhere — checking is not resolving.)
var FinishOnce = &analysis.Analyzer{
	Name: "finishonce",
	Doc:  "request results must resolve through the Server.finish CAS path",
	Run:  runFinishOnce,
}

// finishOncePackages are the packages whose request objects carry the
// resp/done pair; elsewhere those field names are unrelated.
var finishOncePackages = map[string]bool{
	"phiserve": true,
	"phifleet": true,
	"phiadmit": true,
}

func runFinishOnce(pass *analysis.Pass) error {
	if pass.Pkg == nil || !finishOncePackages[pass.Pkg.Name()] {
		return nil
	}
	pass.EachFunc(func(_ *ast.File, decl *ast.FuncDecl) {
		if analysis.FuncName(decl) == "finish" {
			return // the designated resolution point
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SendStmt:
				if isField(n.Chan, "resp") {
					pass.Reportf(n.Arrow,
						"result sent on %s outside finish; resolve through the Server.finish CAS so delivery stays exactly-once",
						analysis.ExprString(n.Chan))
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					if isField(n.Args[0], "resp") {
						pass.Reportf(n.Pos(),
							"close of %s: result channels deliver exactly one value via finish and are never closed",
							analysis.ExprString(n.Args[0]))
					}
					return true
				}
				sel, ok := analysis.MethodCall(n)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Store", "Swap", "CompareAndSwap":
					if isField(sel.X, "done") {
						pass.Reportf(n.Pos(),
							"%s.%s outside finish; only the finish CAS may resolve a request",
							analysis.ExprString(sel.X), sel.Sel.Name)
					}
				}
			}
			return true
		})
	})
	return nil
}

// isField reports whether e is a selector ending in the given field name
// (q.resp, o.q.done, ...). A bare identifier does not count: the rule
// targets the request struct's fields, not locals that happen to share
// the name.
func isField(e ast.Expr, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}
