// Package lint holds banlint, the repository's static checks: four
// syntactic invariants (errsentinel, gospawn, lockhold, wallclock) and the
// audit of the //lint:allow waivers that excuse their findings. TestRepoIsLintClean
// runs them over every package of the repository, the benchmark module
// included, and fails on any finding; `make lint` runs that test. DESIGN.md
// §8 states each invariant and the mutations that show what it catches that
// the tests do not.
//
// A check is a plain function over one package's parsed non-test files. It
// sees syntax only, with no type information: every invariant here is
// visible in one file's syntax plus its import table.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// A Finding is one violation of a check, or one faulty waiver.
type Finding struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats a finding the way go vet does.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Message)
}

// A check reports the violations of one invariant in one package. path is
// the package's slash-separated directory relative to the linted root;
// scope-limited checks match it segment by segment (see inScope).
type check func(fset *token.FileSet, files []*ast.File, path string) []Finding

// checks is the suite, by the name its findings and waivers carry.
var checks = []struct {
	name string
	run  check
}{
	{"errsentinel", errsentinel},
	{"gospawn", gospawn},
	{"lockhold", lockhold},
	{"wallclock", wallclock},
}

// Checks returns the names of the checks.
func Checks() []string {
	names := make([]string, len(checks))
	for i, c := range checks {
		names[i] = c.name
	}
	return names
}

// Lint runs every check, then the waiver audit, over each package under
// root. Below root it skips testdata, vendor, and hidden or
// underscore-prefixed directories. A nested module is linted like any other
// directory.
func Lint(root string) ([]Finding, error) {
	fset := token.NewFileSet()
	var out []Finding
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		files, err := ParseDir(fset, dir)
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		var found []Finding
		for _, c := range checks {
			for _, f := range c.run(fset, files, filepath.ToSlash(rel)) {
				f.Check = c.name
				found = append(found, f)
			}
		}
		out = append(out, audit(fset, files, found)...)
		return nil
	})
	return out, err
}

// ParseDir parses the Go files of dir, with comments, in name order. It
// skips _test.go files, so a test that measures real elapsed behaviour may
// read the real clock, and the files the go tool ignores.
func ParseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ImportName returns the local name under which file imports the package
// with the given import path ("" when the file does not import it, "." for
// dot imports, the alias when renamed, the path's base name otherwise).
// Checks use it to resolve selector bases like time.Now without type
// information, respecting aliased imports.
func ImportName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		if imp.Path == nil || len(imp.Path.Value) < 2 || imp.Path.Value[1:len(imp.Path.Value)-1] != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndexByte(path, '/')+1:]
	}
	return ""
}

// inScope reports whether the slash-separated path has one of segments as a
// whole segment: "internal/simnet" is in scope for "simnet", and so is a
// fixture directory "wallclock/simnet"; "simnet2" is not.
func inScope(path string, segments []string) bool {
	for _, seg := range strings.Split(path, "/") {
		if slices.Contains(segments, seg) {
			return true
		}
	}
	return false
}

// at makes a finding at pos; the caller's check name is filled in by Lint.
func at(fset *token.FileSet, pos token.Pos, format string, args ...any) Finding {
	return Finding{Pos: fset.Position(pos), Message: fmt.Sprintf(format, args...)}
}
