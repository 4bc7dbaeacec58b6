package banscore_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// fencedBlock matches a fenced code block; only inline code spans are
	// references the check holds to the tree.
	fencedBlock = regexp.MustCompile("(?s)```.*?```")
	codeSpan    = regexp.MustCompile("`([^`\n]+)`")
	makeCall    = regexp.MustCompile(`(?:^|\s)make\s+([A-Za-z0-9_-]+)`)
	makeRule    = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+)\s*:([^=]|$)`)
	// pathToken is a word made only of path characters; bareFile is one
	// naming a file by its name alone.
	pathToken = regexp.MustCompile(`^[A-Za-z0-9_./-]+$`)
	bareFile  = regexp.MustCompile(`^[A-Za-z0-9_-][A-Za-z0-9_.-]*\.(go|md|json|txt|sh|mod|yml|sarif|golden)$`)
	// goSelector is a trailing exported identifier (pkg/path.Name).
	goSelector = regexp.MustCompile(`\.[A-Z][A-Za-z0-9_]*$`)
)

// TestDocReferences holds README.md and DESIGN.md to the tree: every
// backticked `make <target>` names a Makefile target, every backticked
// repository path (a word whose first segment is a top-level entry of the
// repository, such as internal/simnet or benchmark/run.sh) exists, and
// every backticked bare file name (BENCHMARK.json, pipe_model_test.go)
// names a file somewhere in the repository. `make docs-check` runs it.
func TestDocReferences(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	top := map[string]bool{}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		top[e.Name()] = true
	}
	names := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		names[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose := fencedBlock.ReplaceAllString(string(text), "")
		for _, span := range codeSpan.FindAllStringSubmatch(prose, -1) {
			code := span[1]
			for _, m := range makeCall.FindAllStringSubmatch(code, -1) {
				if !targets[m[1]] {
					t.Errorf("%s: `%s` names no Makefile target %q", doc, code, m[1])
				}
			}
			if bareFile.MatchString(code) {
				if !names[code] {
					t.Errorf("%s: `%s` names no file in the repository", doc, code)
				}
				continue
			}
			for _, word := range strings.Fields(code) {
				path := strings.TrimPrefix(word, "./")
				first, _, nested := strings.Cut(path, "/")
				if !nested || !top[first] || !pathToken.MatchString(path) {
					continue
				}
				path = goSelector.ReplaceAllString(path, "")
				if _, err := os.Stat(path); err != nil {
					t.Errorf("%s: `%s` refers to %s, which does not exist", doc, code, path)
				}
			}
		}
	}
}
