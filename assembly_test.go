package banscore_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// victimNewAllowed lists the non-test files that may call node.New, and
// how often: the assembly itself and the chaos cluster's bare honest peers.
// benchmark/ builds its own victims and is outside the scan.
var victimNewAllowed = map[string]int{
	"internal/node/assemble.go": 1,
	"internal/chaos/chaos.go":   1,
}

// wiringCalls are the observability calls only the assembly (or the
// package declaring the method) may make.
var wiringCalls = map[string]bool{"Instrument": true, "SetTracer": true, "SetHealth": true}

// TestOneVictimAssembly holds every victim to node.Assemble: outside the
// allowlisted files no non-test code under cmd/, internal/, examples/ or
// the facade calls node.New, and none outside the assembly and the
// declaring package calls Instrument, SetTracer, SetHealth or mounts a
// /debug handler.
func TestOneVictimAssembly(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, root := range []string{"cmd", "internal", "examples", "banscore.go"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			files[filepath.ToSlash(path)] = f
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A package may call its own wiring methods.
	declares := map[string]bool{}
	for path, f := range files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && (wiringCalls[fn.Name.Name] || fn.Name.Name == "Handle") {
				declares[filepath.Dir(path)+"."+fn.Name.Name] = true
			}
		}
	}

	var bad []string
	newCalls := map[string][]string{}
	for path, f := range files {
		nodePkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"banscore/internal/node"` {
				nodePkg = "node"
				if imp.Name != nil {
					nodePkg = imp.Name.Name
				}
			}
		}
		inNode := filepath.Dir(path) == "internal/node"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if inNode && fun.Name == "New" {
					newCalls[path] = append(newCalls[path], fset.Position(call.Pos()).String()+": node.New")
				}
				return true
			case *ast.SelectorExpr:
				name = fun.Sel.Name
				if x, ok := fun.X.(*ast.Ident); ok && nodePkg != "" && x.Name == nodePkg && name == "New" {
					newCalls[path] = append(newCalls[path], fset.Position(call.Pos()).String()+": node.New")
				}
			default:
				return true
			}
			wiring := wiringCalls[name]
			if name == "Handle" && len(call.Args) > 0 {
				lit, ok := call.Args[0].(*ast.BasicLit)
				if ok && lit.Kind == token.STRING {
					pattern, _ := strconv.Unquote(lit.Value)
					wiring = strings.HasPrefix(pattern, "/debug")
				}
			}
			if wiring && path != "internal/node/assemble.go" && !declares[filepath.Dir(path)+"."+name] {
				bad = append(bad, fset.Position(call.Pos()).String()+": "+name)
			}
			return true
		})
	}
	for path, calls := range newCalls {
		if len(calls) > victimNewAllowed[path] {
			bad = append(bad, calls...)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Errorf("victim wiring outside node.Assemble:\n\t%s\nnode.New calls allowed per file: %v; Instrument, SetTracer, SetHealth and Handle(\"/debug…\") only in internal/node/assemble.go and the package declaring the method",
			strings.Join(bad, "\n\t"), victimNewAllowed)
	}
}
