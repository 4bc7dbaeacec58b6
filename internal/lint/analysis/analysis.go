// Package analysis is a dependency-free reimplementation of the core of
// golang.org/x/tools/go/analysis, sized to this repository's needs. The
// build environment vendors no third-party modules, so the banlint suite
// (see internal/lint/banlint) runs on this framework instead; the API
// mirrors x/tools closely enough that an analyzer written here ports to the
// upstream framework by changing one import when the dependency becomes
// available.
//
// The unit of work is the Analyzer: a named check with a Run function that
// inspects one package's syntax trees through a Pass and reports
// Diagnostics. Analyzers in this framework are purely syntactic — there is
// no type information and no cross-package fact propagation — which is a
// deliberate trade: every invariant banlint enforces (wall-clock calls,
// sentinel-error comparisons, lock-region blocking, metric-name constancy,
// go-statement supervision) is visible in a single file's syntax plus its
// import table.
//
// Suppression: a finding can be waived in place with an escape comment of
// the form
//
//	//lint:allow <analyzer>(<reason>)
//
// either trailing the offending line or alone on the line directly above
// it. The reason is mandatory: a bare //lint:allow, an empty reason, or a
// malformed directive is itself reported as a diagnostic (analyzer name
// "lintdirective"), so waivers stay auditable. One directive waives only
// the named analyzer's findings on its target line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// An Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. By convention it is a single
	// lowercase word.
	Name string

	// Doc is the analyzer's documentation: a one-line summary,
	// a blank line, then detail.
	Doc string

	// Run applies the check to one package.
	Run func(*Pass) error
}

// A Pass presents one package to an Analyzer and collects its findings.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer

	// Fset maps positions in Files.
	Fset *token.FileSet

	// Files are the package's parsed syntax trees, with comments.
	Files []*ast.File

	// PkgName is the package's declared name (the `package` clause).
	PkgName string

	// PkgPath is the package's import path — module-qualified when the
	// loader found a go.mod, otherwise directory-derived. Analyzers that
	// scope themselves to particular packages match on its "/"-separated
	// segments (see HasPathSegment).
	PkgPath string

	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// HasPathSegment reports whether the package's import path contains the
// given "/"-separated segment — the matching rule scope-limited analyzers
// use so that "banscore/internal/simnet" and an analysistest fixture
// loaded as plain "simnet" are both in scope for segment "simnet".
func (p *Pass) HasPathSegment(segment string) bool {
	return PathHasSegment(p.PkgPath, segment)
}

// PathHasSegment reports whether the "/"-separated import path contains
// the given segment.
func PathHasSegment(path, segment string) bool {
	for len(path) > 0 {
		i := 0
		for i < len(path) && path[i] != '/' {
			i++
		}
		if path[:i] == segment {
			return true
		}
		if i == len(path) {
			break
		}
		path = path[i+1:]
	}
	return false
}

// ImportName returns the local name under which file imports the package
// with the given import path ("" when the file does not import it, "." for
// dot imports, the alias when renamed, the path's base name otherwise).
// Analyzers use it to resolve selector bases like time.Now without type
// information, respecting aliased imports.
func ImportName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if imp.Path == nil || len(imp.Path.Value) < 2 {
			continue
		}
		p := imp.Path.Value[1 : len(imp.Path.Value)-1]
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		base := p
		for i := len(p) - 1; i >= 0; i-- {
			if p[i] == '/' {
				base = p[i+1:]
				break
			}
		}
		return base
	}
	return ""
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos

	// Analyzer names the check that produced it (or "lintdirective" for
	// malformed suppression comments).
	Analyzer string

	// Message describes the finding.
	Message string
}

// SortDiagnostics orders diagnostics by position, then analyzer, then
// message — the stable order drivers and tests rely on.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}
