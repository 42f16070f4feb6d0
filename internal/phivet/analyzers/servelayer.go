package analyzers

import (
	"strconv"

	"phiopenssl/internal/phivet/analysis"
)

// ServeLayer keeps the serving layer kernel-agnostic. phiserve, phifleet
// and phiadmit batch, route and admit phiwork.Workload values and never
// need to know which kernel family a workload runs; the kernel packages
// (rsakit, dh) reach them only through phiwork. The RSA-only submit
// spellings once made all three serving packages import rsakit, and every
// further workload kind would have wanted its own spelling at every
// layer. A serving package importing a kernel is the first step back to
// that shape, so the import itself is the diagnostic.
//
// Serving packages are matched by package name (so fixtures can stand in
// for them) and, like every phivet check, only non-test files count:
// tests build keys and groups to drive the workloads.
var ServeLayer = &analysis.Analyzer{
	Name: "servelayer",
	Doc:  "serving packages (phiserve, phifleet, phiadmit) import no kernel package; workloads reach them through phiwork",
	Run:  runServeLayer,
}

var servingPackages = map[string]bool{
	"phiserve": true,
	"phifleet": true,
	"phiadmit": true,
}

var kernelPackages = map[string]bool{
	"phiopenssl/internal/rsakit": true,
	"phiopenssl/internal/dh":     true,
}

func runServeLayer(pass *analysis.Pass) error {
	if !servingPackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && kernelPackages[path] {
				pass.Reportf(imp.Pos(), "serving package %s imports kernel package %s; reach workloads through phiwork",
					pass.Pkg.Name(), path)
			}
		}
	}
	return nil
}
