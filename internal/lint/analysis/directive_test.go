// Package analysis holds the tests of the //lint:allow waiver rules of
// package lint, and of the path-segment scopes of its checks.
package analysis

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

func TestTrailingDirectiveTargetsOwnLine(t *testing.T) {
	expectTree(t, map[string]string{"simnet/a.go": inFunc(
		now+" //lint:allow wallclock(reasoned waiver)",
		now)},
		"simnet/a.go:7 wallclock: time.Now reads the ambient clock")
}

// TestStandaloneDirectiveTargetsNextLine puts the waiver on a comment-only
// line inside a function, which the function's node spans: it must still
// target the next line, not its own.
func TestStandaloneDirectiveTargetsNextLine(t *testing.T) {
	expectTree(t, map[string]string{"simnet/a.go": inFunc(
		now,
		"//lint:allow wallclock(reasoned waiver)",
		now,
		now)},
		"simnet/a.go:6 wallclock", "simnet/a.go:9 wallclock")
}

// TestMalformedDirectives: a waiver with no check name, no reason, an
// unclosed reason or a name of two words is a finding and excuses nothing.
func TestMalformedDirectives(t *testing.T) {
	var want []string
	for line := 6; line <= 12; line++ {
		want = append(want,
			fmt.Sprintf("simnet/a.go:%d lintdirective: malformed lint:allow directive", line),
			fmt.Sprintf("simnet/a.go:%d wallclock", line))
	}
	expectTree(t, map[string]string{"simnet/a.go": inFunc(
		now+" //lint:allow",
		now+" //lint:allow wallclock",
		now+" //lint:allow wallclock()",
		now+" //lint:allow wallclock(  )",
		now+" //lint:allow (no name)",
		now+" //lint:allow two words(reason)",
		now+" //lint:allow wallclock(unclosed")},
		want...)
}

func TestUnrelatedCommentsIgnored(t *testing.T) {
	expectTree(t, map[string]string{"simnet/a.go": inFunc(
		now+" //lint:allowwallclock(prefix runs into another word)",
		now+" // lint:allow wallclock(spaced out)")},
		"simnet/a.go:6 wallclock", "simnet/a.go:7 wallclock")
}

// TestSuppressedMatchesAnalyzerAndLine: a waiver excuses only the check it
// names, on its target line, and no waiver can name the audit itself.
func TestSuppressedMatchesAnalyzerAndLine(t *testing.T) {
	expectTree(t, map[string]string{"simnet/a.go": inFunc(
		"//lint:allow gospawn(names the wrong check)",
		now,
		now+" //lint:allow wallclock(waives this line only)",
		"//lint:allow lintdirective(the audit's own findings)",
		now+" //lint:allow")},
		"simnet/a.go:6 lintdirective: stale lint:allow directive: gospawn reports no diagnostic on its target line",
		"simnet/a.go:7 wallclock: time.Now reads the ambient clock",
		`simnet/a.go:9 lintdirective: unknown check "lintdirective"`,
		"simnet/a.go:10 lintdirective: malformed",
		"simnet/a.go:10 wallclock")
}

// TestUnknownCheckDirectives: a waiver that names no check is a finding,
// and a misspelt one excuses nothing.
func TestUnknownCheckDirectives(t *testing.T) {
	expectTree(t, map[string]string{"simnet/a.go": inFunc(
		"x := 1 //lint:allow nosuchcheck(waives nothing)",
		"_ = x",
		now+" //lint:allow wallclok(typo)")},
		`simnet/a.go:6 lintdirective: unknown check "nosuchcheck" in lint:allow directive`,
		`simnet/a.go:8 lintdirective: unknown check "wallclok" in lint:allow directive`,
		"simnet/a.go:8 wallclock")
}

// TestHasPathSegment: a scoped check matches its scope against whole
// segments of the package's path below the linted root.
func TestHasPathSegment(t *testing.T) {
	files := map[string]string{}
	for _, dir := range []string{"simnet", "internal/simnet", "wallclock/simnet/x", "simnet2", "sim/net", "internal/simnets"} {
		files[dir+"/a.go"] = inFunc(now)
	}
	expectTree(t, files, "internal/simnet/a.go:6 wallclock", "simnet/a.go:6 wallclock", "wallclock/simnet/x/a.go:6 wallclock")
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
