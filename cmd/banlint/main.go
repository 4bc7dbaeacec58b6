// Command banlint runs the repository's analyzer suite (see
// internal/lint/banlint) over Go packages:
//
//	go run ./cmd/banlint ./...
//	go run ./cmd/banlint -json -tests ./internal/simnet
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"banscore/internal/lint/analysis"
	"banscore/internal/lint/banlint"
	"banscore/internal/lint/loader"
	"banscore/internal/lint/runner"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	tests := flag.Bool("tests", false, "also lint _test.go files")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	sarifOut := flag.String("sarif", "", "write findings as SARIF 2.1.0 to the named file")
	flag.Usage = usage
	flag.Parse()

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "banlint: %v\n", err)
		os.Exit(2)
	}

	os.Exit(lint(flag.Args(), analyzers, loader.Config{IncludeTests: *tests}, *jsonOut, *sarifOut))
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: banlint [-json] [-tests] [-only=a,b] [package dir | dir/... | ./...] ...\n\nAnalyzers:\n")
	for _, a := range banlint.Analyzers() {
		summary, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, summary)
	}
	flag.PrintDefaults()
}

// selectAnalyzers resolves the -only filter.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := banlint.Analyzers()
	if only == "" {
		return all, nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a := banlint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// lint loads the directory trees named by args (default "./...") and
// reports their findings.
func lint(args []string, analyzers []*analysis.Analyzer, cfg loader.Config, jsonOut bool, sarifOut string) int {
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*loader.Package
	for _, arg := range args {
		var (
			loaded []*loader.Package
			err    error
		)
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			if rest == "." || rest == "" {
				rest = "."
			}
			loaded, err = loader.LoadTree(rest, cfg)
		} else {
			var pkg *loader.Package
			pkg, err = loader.LoadDir(arg, cfg)
			if pkg != nil {
				loaded = []*loader.Package{pkg}
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "banlint: %s: %v\n", arg, err)
			return 2
		}
		pkgs = append(pkgs, loaded...)
	}

	perPkg, err := runner.RunTree(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "banlint: %v\n", err)
		return 2
	}
	var findings []runner.Finding
	for i, pkg := range pkgs {
		findings = append(findings, runner.Resolve(pkg, perPkg[i])...)
	}
	if sarifOut != "" {
		if err := writeSARIF(sarifOut, findings, analyzers); err != nil {
			fmt.Fprintf(os.Stderr, "banlint: %v\n", err)
			return 2
		}
	}
	return report(findings, jsonOut, os.Stdout)
}

// report prints findings and returns the process exit code.
func report(findings []runner.Finding, jsonOut bool, stdout io.Writer) int {
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []runner.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "banlint: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
