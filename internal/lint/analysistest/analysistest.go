// Package analysistest verifies analyzers against fixture packages, in
// the style of golang.org/x/tools/go/analysis/analysistest: fixture files
// mark the lines where diagnostics are expected with trailing comments of
// the form
//
//	// want "regexp"
//	// want `regexp one` `regexp two`
//
// Each quoted pattern must match the message of exactly one diagnostic
// reported on that line, and every reported diagnostic must be claimed by
// a pattern. The harness runs the full driver pipeline — analyzers, then
// //lint:allow suppression — so fixtures exercise escape comments and
// malformed-directive reporting exactly as cmd/banlint would.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"banscore/internal/lint/analysis"
	"banscore/internal/lint/loader"
	"banscore/internal/lint/runner"
)

// Run loads the fixture package at dir, applies the analyzers through the
// shared driver pipeline, and compares the findings against the fixture's
// // want expectations.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	pkg, err := loader.LoadDir(dir, loader.Config{IncludeTests: true})
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if pkg == nil {
		t.Fatalf("fixture %s contains no Go files", dir)
	}
	per, err := runner.RunTree([]*loader.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	findings := runner.Resolve(pkg, per[0])
	expects, err := parseExpectations(pkg)
	if err != nil {
		t.Fatalf("parse expectations in %s: %v", pkg.Dir, err)
	}

	// Claim findings with expectations, line by line.
	claimed := make([]bool, len(findings))
	for _, exp := range expects {
		matched := false
		for i, f := range findings {
			if claimed[i] || f.File != exp.file || f.Line != exp.line {
				continue
			}
			if exp.re.MatchString(f.Message) {
				claimed[i] = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", exp.file, exp.line, exp.re)
		}
	}
	for i, f := range findings {
		if !claimed[i] {
			t.Errorf("%s: unexpected diagnostic: %s: %s", location(f), f.Analyzer, f.Message)
		}
	}
}

func location(f runner.Finding) string {
	return fmt.Sprintf("%s:%d:%d", f.File, f.Line, f.Column)
}

// expectation is one parsed // want pattern.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// parseExpectations scans the fixture sources line by line for // want
// comments. Scanning raw text (rather than the comment AST) lets a line
// whose comment is itself under test — a malformed //lint:allow — still
// carry an expectation.
func parseExpectations(pkg *loader.Package) ([]expectation, error) {
	var out []expectation
	for _, f := range pkg.Files {
		name := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			patterns, err := parsePatterns(strings.TrimSpace(line[idx+len("// want "):]))
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", filepath.Base(name), i+1, err)
			}
			for _, p := range patterns {
				re, err := regexp.Compile(p)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad pattern %q: %w", filepath.Base(name), i+1, p, err)
				}
				out = append(out, expectation{file: name, line: i + 1, re: re})
			}
		}
	}
	return out, nil
}

// parsePatterns splits a want body into its quoted regexps. Both Go string
// syntax ("...") and raw backquotes (`...`) are accepted.
func parsePatterns(body string) ([]string, error) {
	var out []string
	for body != "" {
		body = strings.TrimSpace(body)
		if body == "" {
			break
		}
		switch body[0] {
		case '"':
			end := -1
			for i := 1; i < len(body); i++ {
				if body[i] == '"' && body[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated quoted pattern in %q", body)
			}
			s, err := strconv.Unquote(body[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad quoted pattern %q: %w", body[:end+1], err)
			}
			out = append(out, s)
			body = body[end+1:]
		case '`':
			end := strings.IndexByte(body[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated raw pattern in %q", body)
			}
			out = append(out, body[1:end+1])
			body = body[end+2:]
		default:
			return nil, fmt.Errorf("want pattern must be quoted or backquoted, got %q", body)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("want comment carries no patterns")
	}
	return out, nil
}
