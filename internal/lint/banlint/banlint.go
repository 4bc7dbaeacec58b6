// Package banlint assembles the repository's analyzer suite — the single
// list cmd/banlint, the analysistest fixtures, the repo-cleanliness test
// and the docs check all share, so "what banlint checks" has exactly one
// definition. DESIGN.md §8 states each analyzer's invariant and the
// mutations that show what it catches that the tests do not.
package banlint

import (
	"banscore/internal/lint/analysis"
	"banscore/internal/lint/analyzers/errsentinel"
	"banscore/internal/lint/analyzers/gospawn"
	"banscore/internal/lint/analyzers/lockhold"
	"banscore/internal/lint/analyzers/wallclock"
)

// Analyzers returns the full banlint suite, sorted by name.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		errsentinel.Analyzer,
		gospawn.Analyzer,
		lockhold.Analyzer,
		wallclock.Analyzer,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
