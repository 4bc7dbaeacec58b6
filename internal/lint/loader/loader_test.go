package loader

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadDirSelf(t *testing.T) {
	pkg, err := LoadDir(".", Config{})
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg == nil {
		t.Fatal("LoadDir returned nil package for a directory with Go files")
	}
	if pkg.Name != "loader" {
		t.Errorf("Name = %q, want %q", pkg.Name, "loader")
	}
	if pkg.Path != "banscore/internal/lint/loader" {
		t.Errorf("Path = %q, want module-qualified import path", pkg.Path)
	}
	for _, f := range pkg.Files {
		name := filepath.Base(pkg.Fset.Position(f.Pos()).Filename)
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("Config{IncludeTests: false} loaded test file %s", name)
		}
	}
}

func TestLoadDirIncludeTests(t *testing.T) {
	pkg, err := LoadDir(".", Config{IncludeTests: true})
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	found := false
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			found = true
		}
	}
	if !found {
		t.Error("IncludeTests did not load this _test.go file")
	}
}

func TestLoadDirEmpty(t *testing.T) {
	dir := t.TempDir()
	pkg, err := LoadDir(dir, Config{})
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg != nil {
		t.Errorf("empty directory should load as nil, got %+v", pkg)
	}
}

func TestLoadDirWithoutGoMod(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "simnet")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package simnet\n"
	if err := os.WriteFile(filepath.Join(dir, "a.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := LoadDir(dir, Config{})
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.Path != "simnet" {
		t.Errorf("Path = %q, want base-name fallback %q", pkg.Path, "simnet")
	}
}

func TestLoadTreeSkipsTestdata(t *testing.T) {
	// Two levels up is internal/lint: the analyzers' fixture packages under
	// testdata/ must not surface as packages of the tree.
	pkgs, err := LoadTree(filepath.Join("..", ".."), Config{})
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadTree found no packages under internal/lint")
	}
	seenSelf := false
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Path, "/testdata/") || strings.HasSuffix(pkg.Path, "/testdata") {
			t.Errorf("LoadTree surfaced fixture package %s", pkg.Path)
		}
		if pkg.Path == "banscore/internal/lint/loader" {
			seenSelf = true
		}
	}
	if !seenSelf {
		t.Error("LoadTree missed banscore/internal/lint/loader")
	}
}

// TestLoadTreeMultiPackage loads a synthetic module with nested packages
// and checks each surfaces once with its module-qualified import path —
// the path scope-limited analyzers match on.
func TestLoadTreeMultiPackage(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":          "module example.com/tm\n\ngo 1.22\n",
		"top.go":          "package tm\n",
		"a/a.go":          "package a\n",
		"a/deep/deep.go":  "package deep\n",
		"b/b.go":          "package b\n",
		"b/b_test.go":     "package b\n\nimport \"testing\"\n\nfunc TestB(t *testing.T) {}\n",
		"b/testdata/f.go": "package fixture\n",
		"vendor/v/v.go":   "package v\n",
		"_attic/old.go":   "package old\n",
		".hidden/h.go":    "package h\n",
	}
	for rel, src := range files {
		path := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := LoadTree(root, Config{})
	if err != nil {
		t.Fatalf("LoadTree: %v", err)
	}
	got := map[string]int{}
	for _, pkg := range pkgs {
		got[pkg.Path]++
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("package %s includes test file %s without IncludeTests", pkg.Path, name)
			}
		}
	}
	want := []string{
		"example.com/tm",
		"example.com/tm/a",
		"example.com/tm/a/deep",
		"example.com/tm/b",
	}
	for _, path := range want {
		if got[path] != 1 {
			t.Errorf("package %s loaded %d times, want 1 (all: %v)", path, got[path], got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("loaded %v; testdata/vendor/underscore/hidden dirs must not surface", got)
	}

	withTests, err := LoadTree(root, Config{IncludeTests: true})
	if err != nil {
		t.Fatalf("LoadTree with tests: %v", err)
	}
	sawTest := false
	for _, pkg := range withTests {
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				sawTest = true
			}
		}
	}
	if !sawTest {
		t.Error("IncludeTests did not surface b/b_test.go")
	}
}
