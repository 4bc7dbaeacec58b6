package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestRepoIsLintClean is the merge gate in test form, and all that `make
// lint` runs: no package of the repository, the benchmark module
// included, has a finding.
func TestRepoIsLintClean(t *testing.T) {
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "benchmark", "go.mod")); err != nil {
		t.Fatalf("%s is not the repository root: %v", root, err)
	}
	found, err := Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Check: "wallclock", Message: "m"}
	if got, want := f.String(), "a.go:3:7: wallclock: m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestImportName(t *testing.T) {
	src := "package p\n\nimport (\n\t\"time\"\n\tmrand \"math/rand\"\n\t. \"strings\"\n)\n"
	f, err := parser.ParseFile(token.NewFileSet(), "a.go", src, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"time": "time", "math/rand": "mrand", "strings": ".", "math": "", "fmt": ""} {
		if got := ImportName(f, path); got != want {
			t.Errorf("ImportName(%q) = %q, want %q", path, got, want)
		}
	}
}
