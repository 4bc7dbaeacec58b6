package runner

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"banscore/internal/lint/analysis"
	"banscore/internal/lint/loader"
)

// writeFixture materializes a one-file package and loads it.
func writeFixture(t *testing.T, src string) *loader.Package {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, loader.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// callFlagger reports every call expression — a minimal analyzer that
// gives the pipeline something to suppress.
var callFlagger = &analysis.Analyzer{
	Name: "callflag",
	Doc:  "flag every call (test analyzer)",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if c, ok := n.(*ast.CallExpr); ok {
					pass.Reportf(c.Pos(), "call site")
				}
				return true
			})
		}
		return nil
	},
}

func TestRunTreePipeline(t *testing.T) {
	src := `package p

func f() {
	g() //lint:allow callflag(first call is sanctioned here)
	g()
	g() //lint:allow callflag
}
`
	pkg := writeFixture(t, src)
	per, err := RunTree([]*loader.Package{pkg}, []*analysis.Analyzer{callFlagger})
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	findings := Resolve(pkg, per[0])
	// Line 4 is waived; line 5 survives; line 6's malformed directive
	// waives nothing, so both the finding and the directive report.
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer)
	}
	want := map[int][]string{5: {"callflag"}, 6: {"callflag", "lintdirective"}}
	byLine := make(map[int][]string)
	for _, f := range findings {
		byLine[f.Line] = append(byLine[f.Line], f.Analyzer)
	}
	if len(byLine) != len(want) {
		t.Fatalf("findings on lines %v, want lines 5 and 6; all: %v", byLine, got)
	}
	for line, analyzers := range want {
		if len(byLine[line]) != len(analyzers) {
			t.Errorf("line %d: got %v, want %v", line, byLine[line], analyzers)
			continue
		}
		for i, a := range analyzers {
			if byLine[line][i] != a {
				t.Errorf("line %d[%d]: got %q, want %q", line, i, byLine[line][i], a)
			}
		}
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{File: "a.go", Line: 3, Column: 7, Analyzer: "wallclock", Message: "m"}
	if got, want := f.String(), "a.go:3:7: wallclock: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// writeModule materializes a multi-package module and loads its tree.
func writeModule(t *testing.T, files map[string]string) []*loader.Package {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tm\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := loader.LoadTree(root, loader.Config{})
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	return pkgs
}

// TestRunTreeStaleWaiver checks the waiver audit: a directive naming an
// analyzer that RAN but suppressed nothing on its line is itself reported.
func TestRunTreeStaleWaiver(t *testing.T) {
	pkgs := writeModule(t, map[string]string{
		"p/p.go": `package p

func f() int {
	return 1 //lint:allow callflag(nothing to waive here)
}
`,
	})
	perPkg, err := RunTree(pkgs, []*analysis.Analyzer{callFlagger})
	if err != nil {
		t.Fatalf("RunTree: %v", err)
	}
	var all []Finding
	for i, pkg := range pkgs {
		all = append(all, Resolve(pkg, perPkg[i])...)
	}
	if len(all) != 1 {
		t.Fatalf("findings = %v, want exactly one stale-waiver report", all)
	}
	f := all[0]
	if f.Analyzer != analysis.DirectiveAnalyzerName || !strings.Contains(f.Message, "stale") {
		t.Errorf("finding = %v, want a stale lintdirective report", f)
	}
	if f.Line != 4 {
		t.Errorf("stale report at line %d, want 4 (the waiver's line)", f.Line)
	}
}
