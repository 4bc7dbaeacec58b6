// Package loader holds the tests of how package lint finds and parses the
// packages under a root.
package loader

import (
	"cmp"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"banscore/internal/lint"
)

const now = "_ = time.Now()"

func TestLoadDirEmpty(t *testing.T) {
	expectTree(t, nil)
	files, err := lint.ParseDir(token.NewFileSet(), t.TempDir())
	if err != nil || len(files) != 0 {
		t.Errorf("ParseDir of an empty directory = %d files, %v; want none", len(files), err)
	}
}

// TestLoadDirSelf: ParseDir reads a package's non-test files only, so this
// directory, which holds only tests, parses to no file, and the go tool's
// ignored files are skipped too.
func TestLoadDirSelf(t *testing.T) {
	files, err := lint.ParseDir(token.NewFileSet(), ".")
	if err != nil || len(files) != 0 {
		t.Errorf("ParseDir(.) = %d files, %v; want none", len(files), err)
	}
	expectTree(t, map[string]string{
		"simnet/a.go":      inFunc(now),
		"simnet/a_test.go": inFunc(now),
		"simnet/.b.go":     inFunc(now),
		"simnet/_c.go":     inFunc(now),
		"simnet/d.txt":     inFunc(now),
	}, "simnet/a.go:6 wallclock")
}

// TestLoadDirWithoutGoMod: a package's path is its directory below the
// linted root, with no go.mod to qualify it.
func TestLoadDirWithoutGoMod(t *testing.T) {
	expectTree(t, map[string]string{"internal/simnet/a.go": inFunc(now)}, "internal/simnet/a.go:6 wallclock")
}

// TestLoadTreeMultiPackage lints every package of a tree once, a package of
// two files and a nested module among them.
func TestLoadTreeMultiPackage(t *testing.T) {
	expectTree(t, map[string]string{
		"simnet/a.go":              inFunc(now),
		"simnet/b.go":              "package p\n\nimport \"time\"\n\nvar start = time.Now()\n",
		"node/a.go":                inFunc("go f()"),
		"experiments/x/a.go":       inFunc(now),
		"mod/go.mod":               "module mod\n",
		"mod/internal/simnet/a.go": inFunc(now),
	},
		"experiments/x/a.go:6 wallclock",
		"mod/internal/simnet/a.go:6 wallclock",
		"node/a.go:6 gospawn: bare go statement in f",
		"simnet/a.go:6 wallclock",
		"simnet/b.go:5 wallclock")
}

// TestLoadTreeSkipsTestdata: below the root the walk skips testdata, vendor,
// hidden and underscored directories. In this repository the checks'
// fixtures, which break every invariant, sit in testdata.
func TestLoadTreeSkipsTestdata(t *testing.T) {
	expectTree(t, map[string]string{
		"simnet/a.go":          inFunc(now),
		"simnet/testdata/a.go": inFunc(now),
		"simnet/vendor/a.go":   inFunc(now),
		"simnet/.hidden/a.go":  inFunc(now),
		"simnet/_skip/a.go":    inFunc(now),
	}, "simnet/a.go:6 wallclock")
	found, err := lint.Lint("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Errorf("fixture linted: %s", f)
	}
}

// inFunc is a file whose function body holds lines, the first on line 6.
func inFunc(lines ...string) string {
	return "package p\n\nimport \"time\"\n\nfunc f() {\n\t" + strings.Join(lines, "\n\t") + "\n}\n"
}

// expectTree writes files under a fresh root and lints it. Written as
// "file:line check: message", file relative to the root, in file, line and
// check order, the findings must be as many as want, each starting with its
// want.
func expectTree(t *testing.T, files map[string]string, want ...string) {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found, err := lint.Lint(root)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(found, func(a, b lint.Finding) int {
		return cmp.Or(cmp.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Check, b.Check))
	})
	ok, got := len(found) == len(want), make([]string, len(found))
	for i, f := range found {
		got[i] = fmt.Sprintf("%s:%d %s: %s", filepath.ToSlash(f.Pos.Filename[len(root)+1:]), f.Pos.Line, f.Check, f.Message)
		ok = ok && strings.HasPrefix(got[i], want[i])
	}
	if !ok {
		t.Errorf("findings:\n\t%s\nwant, as prefixes:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
