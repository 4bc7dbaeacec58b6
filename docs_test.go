package banscore_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"banscore/internal/experiments"
	"banscore/internal/lint/banlint"
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
	// analyzerRow is a table row naming an analyzer in its first cell;
	// analyzerItem is a list item naming one first.
	analyzerRow  = regexp.MustCompile("^\\| `([a-z]+)` \\|")
	analyzerItem = regexp.MustCompile("^- `([a-z]+)`")
	// experimentsCall is where a cmd/experiments invocation starts; its
	// flags follow. cliFlag is one -name or -name=value token.
	experimentsCall = regexp.MustCompile(`(?:cmd/experiments|\bexperiments)\b[ \t]`)
	cliFlag         = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=(.*))?$`)
)

// TestDocReferences holds README.md, DESIGN.md, EXPERIMENTS.md and PERF.md
// to the tree: every
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

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PERF.md"} {
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

// TestDocAnalyzerLists holds the two places that list banlint's analyzers
// to the suite itself, so a deleted analyzer cannot linger in the docs and
// a new one cannot go unlisted: each table in DESIGN.md §8 names exactly
// banlint.Analyzers() (a row whose last cell starts with "**deleted**" is
// history, not a claim), and README.md's "N analyzers run:" list names
// them all, N spelled out. `make docs-check` runs it.
func TestDocAnalyzerLists(t *testing.T) {
	var want []string
	for _, a := range banlint.Analyzers() {
		want = append(want, a.Name)
	}
	slices.Sort(want)

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## 8.")
	section, _, _ = strings.Cut(section, "\n## 9.")
	tables := 0
	for _, table := range strings.Split(section, "\n\n") {
		var got []string
		for _, line := range strings.Split(table, "\n") {
			m := analyzerRow.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			cells := strings.Split(strings.TrimSuffix(line, "|"), "|")
			if !strings.HasPrefix(strings.TrimSpace(cells[len(cells)-1]), "**deleted**") {
				got = append(got, m[1])
			}
		}
		if got == nil {
			continue
		}
		tables++
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("DESIGN.md §8 table lists analyzers %v, banlint runs %v", got, want)
		}
	}
	if tables == 0 {
		t.Error("DESIGN.md §8 has no analyzer table")
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	before, list, ok := strings.Cut(string(readme), " analyzers run:\n")
	if !ok {
		t.Fatal(`README.md has no "N analyzers run:" list`)
	}
	count := strings.ToLower(before[strings.LastIndexAny(before, " \n")+1:])
	list, _, _ = strings.Cut(list, "\n\n")
	var got []string
	for _, line := range strings.Split(list, "\n") {
		if m := analyzerItem.FindStringSubmatch(line); m != nil {
			got = append(got, m[1])
		}
	}
	slices.Sort(got)
	words := []string{"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten", "eleven", "twelve"}
	if !slices.Equal(got, want) || (len(want) < len(words) && count != words[len(want)]) {
		t.Errorf("README.md says %s analyzers run, lists %v; banlint runs %d: %v", count, got, len(want), want)
	}
}

// TestExperimentsCommandLines holds every cmd/experiments invocation in the
// docs, the Makefile, the CI workflows and the verify skill to the command
// itself: each -flag is one cmd/experiments/main.go defines, and each -only
// value names an experiment of the registry. `make docs-check` runs it.
func TestExperimentsCommandLines(t *testing.T) {
	flags := definedFlags(t, "cmd/experiments/main.go")
	names := map[string]bool{}
	for _, e := range experiments.Experiments() {
		names[e.Name] = true
	}
	files := []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "PERF.md", "Makefile", ".claude/skills/verify/SKILL.md"}
	workflows, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil || len(workflows) == 0 {
		t.Fatalf("no CI workflows (%v)", err)
	}
	calls := 0
	for _, file := range append(files, workflows...) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, loc := range experimentsCall.FindAllStringIndex(text, -1) {
			start := strings.LastIndexByte(text[:loc[0]], '\n') + 1
			end := strings.IndexByte(text[loc[0]:], '\n')
			if end < 0 {
				end = len(text) - loc[0]
			}
			line := strings.TrimSpace(text[start : loc[0]+end])
			where := file + ":" + strconv.Itoa(strings.Count(text[:loc[0]], "\n")+1)
			tokens := strings.Fields(text[loc[1]:])
			for i := 0; i < len(tokens); i++ {
				m := cliFlag.FindStringSubmatch(strings.TrimRight(tokens[i], "`"))
				if m == nil {
					break
				}
				calls++
				if !flags[m[1]] {
					t.Errorf("%s: -%s is not a cmd/experiments flag: %s", where, m[1], line)
				}
				value, closed := m[2], strings.HasSuffix(tokens[i], "`")
				if !strings.Contains(tokens[i], "=") && !closed && i+1 < len(tokens) {
					i++
					value, closed = tokens[i], strings.Contains(tokens[i], "`")
				}
				value = strings.TrimRight(value, "`),.;:")
				if m[1] == "only" && !names[value] {
					t.Errorf("%s: -only %q is not a registry name: %s", where, value, line)
				}
				if closed {
					break
				}
			}
		}
	}
	if calls == 0 {
		t.Error("found no cmd/experiments flags in the docs")
	}
}

// definedFlags returns the names of the flags a command's source defines:
// the string-literal first argument of every flag-set String, Int, Int64,
// Float64, Duration or Bool call.
func definedFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		lit, isLit := call.Args[0].(*ast.BasicLit)
		if !ok || !isLit || lit.Kind != token.STRING {
			return true
		}
		switch sel.Sel.Name {
		case "String", "Int", "Int64", "Float64", "Duration", "Bool":
			if name, err := strconv.Unquote(lit.Value); err == nil {
				flags[name] = true
			}
		}
		return true
	})
	if len(flags) == 0 {
		t.Fatalf("%s defines no flags", path)
	}
	return flags
}
