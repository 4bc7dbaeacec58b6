// Package runner holds the tests of package lint's Lint: every check, then
// the waiver audit, over each package.
package runner

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"banscore/internal/lint"
)

const now = "_ = time.Now()"

// TestRunTreePipeline: of three findings, a waiver excuses the first; the
// second survives; the third's waiver is malformed, so it excuses nothing
// and is a finding too. Findings of two checks in one package both count.
func TestRunTreePipeline(t *testing.T) {
	expectTree(t, map[string]string{"node/simnet/a.go": inFunc(
		now+" //lint:allow wallclock(first call is sanctioned here)",
		now,
		now+" //lint:allow wallclock",
		"go f() //lint:allow gospawn(reasoned waiver)",
		"go f()")},
		"node/simnet/a.go:7 wallclock",
		"node/simnet/a.go:8 lintdirective: malformed",
		"node/simnet/a.go:8 wallclock",
		"node/simnet/a.go:10 gospawn")
}

// TestRunTreeStaleWaiver: a waiver that excuses nothing on its target line
// is itself reported, on its own line.
func TestRunTreeStaleWaiver(t *testing.T) {
	expectTree(t, map[string]string{"simnet/a.go": inFunc(
		"_ = 1 //lint:allow wallclock(nothing to waive here)")},
		"simnet/a.go:6 lintdirective: stale lint:allow directive: wallclock reports no diagnostic on its target line")
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
