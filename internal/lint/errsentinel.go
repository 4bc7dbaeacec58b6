package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// stringMatchFuncs are the strings-package predicates that, applied to
// err.Error(), amount to error-text matching.
var stringMatchFuncs = map[string]bool{
	"Contains":  true,
	"HasPrefix": true,
	"HasSuffix": true,
	"EqualFold": true,
}

// errsentinel forbids direct comparison against sentinel error values.
//
// The repository's error taxonomy is built on wrapped sentinels:
// peer.ErrSendQueueFull, node.ErrOutboundSlotsFull, simnet's injected
// fault errors — all are classified by callers (the slot keeper's retry
// policy, the chaos suite's assertions) and almost always arrive wrapped
// by fmt.Errorf("%w", ...). A direct == or != against the sentinel
// silently stops matching the moment any layer adds context, which is
// exactly how the connection manager once misclassified a wrapped
// ErrAlreadyConnected as a transient failure and kept redialing a filled
// slot. errors.Is is the only comparison that survives wrapping, so this
// check reports:
//
//   - x == pkg.ErrFoo / x != ErrFoo, when the other operand looks like an
//     error value (its name contains "err") and the sentinel is not a
//     package-local constant (constant Err* values are error *codes* —
//     e.g. blockchain.ErrorCode — and compare fine with ==),
//   - err.Error() == "...", err.Error() != "...", and
//     strings.Contains/HasPrefix/HasSuffix/EqualFold(err.Error(), ...):
//     string matching on error text, which breaks on any message edit.
//
// Comparisons with nil are untouched (err == nil is the idiom).
func errsentinel(fset *token.FileSet, files []*ast.File, _ string) []Finding {
	consts := packageConsts(files)
	var out []Finding
	for _, file := range files {
		stringsName := ImportName(file, "strings")
		ast.Inspect(file, func(n ast.Node) bool {
			var msg string
			switch e := n.(type) {
			case *ast.BinaryExpr:
				msg = checkComparison(consts, e)
			case *ast.CallExpr:
				msg = checkStringsCall(stringsName, e)
			}
			if msg != "" {
				out = append(out, at(fset, n.Pos(), "%s", msg))
			}
			return true
		})
	}
	return out
}

// checkComparison describes a sentinel or error-text comparison, or
// returns "".
func checkComparison(consts map[string]bool, e *ast.BinaryExpr) string {
	if e.Op != token.EQL && e.Op != token.NEQ {
		return ""
	}
	if isNil(e.X) || isNil(e.Y) {
		return ""
	}

	// err.Error() == "..." in either orientation.
	for _, pair := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
		if isErrorTextCall(pair[0]) && isStringLit(pair[1]) {
			return "comparing err.Error() text breaks on any message edit; match the sentinel with errors.Is"
		}
	}

	// sentinel == error-ish value in either orientation.
	for _, pair := range [2][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
		name, local := sentinelName(pair[0])
		if name == "" {
			continue
		}
		if local && consts[name] {
			// A package-local constant named Err* is an error code
			// (compare-by-value enum), not a sentinel error value.
			continue
		}
		if !looksLikeErrorValue(pair[1]) {
			continue
		}
		return e.Op.String() + " " + describe(pair[1]) + " against sentinel " + name + " misses wrapped errors; use errors.Is"
	}
	return ""
}

// checkStringsCall describes strings.Contains(err.Error(), ...) and
// friends, or returns "".
func checkStringsCall(stringsName string, call *ast.CallExpr) string {
	if stringsName == "" {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !stringMatchFuncs[sel.Sel.Name] {
		return ""
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok || base.Name != stringsName {
		return ""
	}
	for _, arg := range call.Args {
		if isErrorTextCall(arg) {
			return "matching err.Error() text with strings." + sel.Sel.Name +
				" breaks on any message edit; use errors.Is (or errors.As for typed errors)"
		}
	}
	return ""
}

// sentinelName recognizes an Err-prefixed identifier or selector and
// returns its final name, plus whether it is package-local (a bare ident).
func sentinelName(e ast.Expr) (name string, local bool) {
	switch v := e.(type) {
	case *ast.Ident:
		if isErrName(v.Name) {
			return v.Name, true
		}
	case *ast.SelectorExpr:
		if isErrName(v.Sel.Name) {
			if base, ok := v.X.(*ast.Ident); ok {
				return base.Name + "." + v.Sel.Name, false
			}
		}
	}
	return "", false
}

// isErrName reports whether name follows the Err sentinel convention:
// "Err" or "err" followed by an upper-case letter ("ErrFoo", "errTimeout").
func isErrName(name string) bool {
	if len(name) < 4 || (name[:3] != "Err" && name[:3] != "err") {
		return false
	}
	return name[3] >= 'A' && name[3] <= 'Z'
}

// looksLikeErrorValue reports whether e plausibly holds an error: an
// identifier or selector whose final name contains "err".
func looksLikeErrorValue(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(v.Name), "err")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(v.Sel.Name), "err")
	}
	return false
}

// isErrorTextCall matches x.Error() where x looks like an error value or
// is itself a call.
func isErrorTextCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Error" {
		return false
	}
	_, isCall := sel.X.(*ast.CallExpr)
	return looksLikeErrorValue(sel.X) || isCall
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isStringLit(e ast.Expr) bool {
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

func describe(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return "value"
}

// packageConsts collects every constant name declared anywhere in the
// package (top-level or function-local) so Err-prefixed error *codes* can
// be told apart from sentinel error *values*.
func packageConsts(files []*ast.File) map[string]bool {
	consts := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			decl, ok := n.(*ast.GenDecl)
			if !ok || decl.Tok != token.CONST {
				return true
			}
			for _, spec := range decl.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						consts[name.Name] = true
					}
				}
			}
			return true
		})
	}
	return consts
}
