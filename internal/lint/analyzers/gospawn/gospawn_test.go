// Package gospawn holds the fixtures of the gospawn check in package lint
// and the tests that lint them.
package gospawn

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"banscore/internal/lint"
)

// TestInScope lints a package under a node path segment, where every go
// statement must go through the supervisor.
func TestInScope(t *testing.T) {
	lintFixture(t, "testdata/node")
}

func TestOutOfScope(t *testing.T) {
	lintFixture(t, "testdata/other")
}

// lintFixture lints testdata and holds the findings in dir to the `// want`
// comments of its files: each backquoted regexp claims one finding on its
// line whose "check: message" it matches, and none may go unclaimed. The
// path below testdata decides scope, as it does in the repository.
func lintFixture(t *testing.T, dir string) {
	found, err := lint.Lint("testdata")
	paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("lint %s: %v, %d files", dir, err, len(paths))
	}
	found = slices.DeleteFunc(found, func(f lint.Finding) bool { return filepath.Dir(f.Pos.Filename) != dir })
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			_, patterns, _ := strings.Cut(line, "// want ")
			for _, m := range regexp.MustCompile("`([^`]*)`").FindAllStringSubmatch(patterns, -1) {
				j := slices.IndexFunc(found, func(f lint.Finding) bool {
					return f.Pos.Filename == path && f.Pos.Line == i+1 && regexp.MustCompile(m[1]).MatchString(f.Check+": "+f.Message)
				})
				if j < 0 {
					t.Errorf("%s:%d: no finding matches %q", path, i+1, m[1])
				} else {
					found = slices.Delete(found, j, j+1)
				}
			}
		}
	}
	for _, f := range found {
		t.Errorf("unexpected finding %s", f)
	}
}
