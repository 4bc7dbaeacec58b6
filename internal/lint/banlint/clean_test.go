package banlint

import (
	"os"
	"path/filepath"
	"testing"

	"banscore/internal/lint/loader"
	"banscore/internal/lint/runner"
)

// TestRepoIsLintClean is the merge gate in test form: the whole tree must
// carry zero banlint findings, at cmd/banlint's default scope (test files
// excluded — tests measuring real elapsed behavior may consult the real
// clock; `banlint -tests` exists for opt-in auditing). It loads the tree
// and runs it through runner.RunTree in one piece, as cmd/banlint does, so
// a failure here prints exactly what `make lint` would.
func TestRepoIsLintClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatalf("locate module root: %v", err)
	}
	pkgs, err := loader.LoadTree(root, loader.Config{IncludeTests: false})
	if err != nil {
		t.Fatalf("load tree: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages under module root")
	}
	per, err := runner.RunTree(pkgs, Analyzers())
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	for i, pkg := range pkgs {
		for _, f := range runner.Resolve(pkg, per[i]) {
			t.Errorf("%s", f)
		}
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

func TestByName(t *testing.T) {
	for _, a := range Analyzers() {
		if got := ByName(a.Name); got != a {
			t.Errorf("ByName(%q) did not return the registered analyzer", a.Name)
		}
	}
	if ByName("nosuch") != nil {
		t.Error("ByName of an unknown name should be nil")
	}
}
