// Command phivet is the repo's static-analysis gate: six analyzers that
// machine-check the serving stack's concurrency and invariant discipline
// (see internal/phivet/analyzers and the "Static analysis & invariants"
// section of DESIGN.md).
//
// It runs in two modes:
//
//	go vet -vettool=bin/phivet ./...   # per-package, the make check / CI gate
//	phivet -repo .                     # standalone whole-module scan; also
//	                                   # runs cross-package checks (metric
//	                                   # family ownership)
//
// The vettool mode speaks cmd/go's vet protocol: the driver probes the
// tool with -V=full (for cache keying) and -flags, then invokes it once
// per package with a vet.cfg describing the files, the import map, and
// the compiled export data of every dependency. Dependency-only
// invocations (VetxOnly) are acknowledged with an empty facts file and
// skipped — the suite keeps no cross-package facts; whole-module checks
// live in -repo mode instead.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"phiopenssl/internal/phivet"
	"phiopenssl/internal/phivet/analysis"
	"phiopenssl/internal/phivet/analyzers"
)

// vetConfig is the slice of cmd/go's vet.cfg the tool consumes.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	var (
		versionFlag = flag.String("V", "", "if 'full', print version and exit (vet driver probe)")
		flagsFlag   = flag.Bool("flags", false, "print the tool's flag definitions as JSON and exit (vet driver probe)")
		repoFlag    = flag.String("repo", "", "standalone mode: scan the module rooted at this directory")
		listFlag    = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Usage = usage
	flag.Parse()

	switch {
	case *flagsFlag:
		// The driver merges these into its own flag set; the suite is not
		// configurable, so there is nothing to declare.
		fmt.Println("[]")
	case *versionFlag != "":
		printVersion()
	case *listFlag:
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
	case *repoFlag != "":
		os.Exit(runRepo(*repoFlag))
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		os.Exit(runVetCfg(flag.Arg(0)))
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `phivet: the phiopenssl static-analysis suite

usage:
  go vet -vettool=bin/phivet ./...   per-package vet integration
  phivet -repo <dir>                 whole-module scan (adds cross-package checks)
  phivet -list                       list analyzers

`)
}

// printVersion answers the driver's -V=full probe. The output keys vet's
// result cache, so it embeds a digest of the executable itself: rebuild
// the tool and every cached vet result invalidates.
func printVersion() {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("phivet version devel buildID=%x\n", h.Sum(nil)[:16])
}

// runRepo is the standalone whole-module mode.
func runRepo(dir string) int {
	pkgs, err := phivet.LoadModule(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	exit := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "phivet: %s: type error: %v\n", pkg.ImportPath, terr)
			exit = 1
		}
	}
	diags, err := phivet.RunModule(analyzers.All(), pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(diags) > 0 {
		phivet.WriteDiags(os.Stderr, pkgs[0].Fset, diags)
		exit = 2
	}
	return exit
}

// runVetCfg handles one per-package invocation from the go vet driver.
func runVetCfg(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phivet: reading %s: %v\n", cfgPath, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "phivet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The driver requires the facts file to exist even though this suite
	// records no cross-package facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "phivet: writing %s: %v\n", cfg.VetxOutput, err)
			return 1
		}
	}
	if cfg.VetxOnly || cfg.Standard[cfg.ImportPath] || len(cfg.GoFiles) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	imp := phivet.NewExportImporter(fset, cfg.PackageFile, cfg.ImportMap, nil)
	pkg, err := phivet.TypeCheck(fset, cfg.ImportPath, cfg.GoFiles, imp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "phivet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "phivet: %s: type error: %v\n", cfg.ImportPath, terr)
		}
		return 1
	}
	diags, err := phivet.Run(analyzers.All(), pkg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if len(diags) > 0 {
		writeVetDiags(os.Stderr, pkg, diags)
		return 2
	}
	return 0
}

// writeVetDiags prints findings in the file:line:col form the vet driver
// relays verbatim.
func writeVetDiags(w io.Writer, pkg *phivet.Package, diags []analysis.Diagnostic) {
	phivet.WriteDiags(w, pkg.Fset, diags)
}
