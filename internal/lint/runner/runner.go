// Package runner executes a set of analyzers over loaded packages and
// applies the //lint:allow suppression pass. It is the shared core of
// cmd/banlint, TestRepoIsLintClean and the analysistest harness, so all
// three agree exactly on what a finding is.
//
// Two granularities exist. Per-package analyzers (Analyzer.Run) see one
// package at a time. Repo-level analyzers (Analyzer.RunRepo — the banvet
// dataflow tier) see every loaded package at once, so a cross-package
// property (the whole-repo lock-order graph) is provable. RunTree runs
// both kinds over the same set of packages, which is why there is no
// per-package entry point: a repo-level analyzer handed one package would
// check a one-package repo, and a waiver audit against it would call
// waivers for its cross-package findings stale.
package runner

import (
	"fmt"

	"banscore/internal/lint/analysis"
	"banscore/internal/lint/loader"
)

// RunTree applies every analyzer to every package and returns the
// surviving diagnostics per package, parallel to pkgs: per-package
// analyzers run on each package, repo-level analyzers run once over the
// whole set, then each package's //lint:allow suppression pass filters
// its findings (repo-level ones included), audits its waivers for
// staleness, and appends one diagnostic per malformed or stale
// directive. Each package's slice is sorted by position.
func RunTree(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([][]analysis.Diagnostic, error) {
	diags := make([][]analysis.Diagnostic, len(pkgs))
	units := make([]*analysis.RepoUnit, len(pkgs))
	unitIndex := make(map[*analysis.RepoUnit]int, len(pkgs))
	for i, pkg := range pkgs {
		units[i] = &analysis.RepoUnit{
			Fset:    pkg.Fset,
			Files:   pkg.Files,
			PkgName: pkg.Name,
			PkgPath: pkg.Path,
		}
		unitIndex[units[i]] = i
	}

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.Run != nil {
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
		if a.RunRepo != nil {
			pass := &analysis.RepoPass{
				Analyzer: a,
				Units:    units,
				Report: func(u *analysis.RepoUnit, d analysis.Diagnostic) {
					i, ok := unitIndex[u]
					if !ok {
						return
					}
					diags[i] = append(diags[i], d)
				},
			}
			if err := a.RunRepo(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
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
