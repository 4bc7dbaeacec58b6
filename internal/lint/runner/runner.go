// Package runner executes a set of analyzers over loaded packages and
// applies the //lint:allow suppression pass. It is the shared core of
// cmd/banlint, TestRepoIsLintClean and the analysistest harness, so all
// three agree exactly on what a finding is.
package runner

import (
	"fmt"

	"banscore/internal/lint/analysis"
	"banscore/internal/lint/loader"
)

// RunTree applies every analyzer to every package and returns the
// surviving diagnostics per package, parallel to pkgs: each package's
// //lint:allow suppression pass filters its findings, audits its waivers
// for staleness, and appends one diagnostic per malformed or stale
// directive. Each package's slice is sorted by position.
func RunTree(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([][]analysis.Diagnostic, error) {
	diags := make([][]analysis.Diagnostic, len(pkgs))
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		for i, pkg := range pkgs {
			i := i
			pass := &analysis.Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				PkgName:  pkg.Name,
				PkgPath:  pkg.Path,
				Report:   func(d analysis.Diagnostic) { diags[i] = append(diags[i], d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}

	for i, pkg := range pkgs {
		sup, directiveDiags := analysis.ParseDirectives(pkg.Fset, pkg.Files)
		diags[i] = sup.Filter(pkg.Fset, diags[i])
		diags[i] = append(diags[i], directiveDiags...)
		diags[i] = append(diags[i], sup.Stale(ran)...)
		analysis.SortDiagnostics(pkg.Fset, diags[i])
	}
	return diags, nil
}

// Finding is one diagnostic rendered against its file set — the
// position-resolved form drivers print and serialize.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Resolve renders diagnostics into findings.
func Resolve(pkg *loader.Package, diags []analysis.Diagnostic) []Finding {
	out := make([]Finding, 0, len(diags))
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		out = append(out, Finding{
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	return out
}

// String formats a finding the way go vet does.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Column, f.Analyzer, f.Message)
}
