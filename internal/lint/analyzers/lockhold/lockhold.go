// Package lockhold defines the banlint analyzer that forbids blocking
// operations while a sync.Mutex or RWMutex is held.
//
// This is the deadlock shape the chaos suite hunts dynamically: a
// goroutine takes a lock, then parks on something whose progress needs
// that same lock — a channel handoff with the consumer stuck behind the
// mutex, a WaitGroup whose workers are queued on it, a net.Conn write
// back-pressured by a peer whose read loop is blocked on our state. The
// race detector never sees it (nothing races) and tests only catch it
// when the scheduler cooperates. The analyzer makes the rule static:
// between x.Lock()/x.RLock() and the matching x.Unlock()/x.RUnlock() —
// or to the end of the function when the unlock is deferred, and from entry
// when the function's first lock operation on x is an unlock (it was called
// with x held) — these are diagnostics:
//
//   - channel sends and receives,
//   - select statements with no default clause,
//   - time.Sleep, and any other .Sleep() call: in this tree the only
//     Sleep methods are vclock.Clock's, which park like time.Sleep,
//   - WaitGroup-style waits: any .Wait() or .WaitForShutdown() call,
//     except sync.Cond waits (receivers whose name contains "cond"),
//     which require the lock by contract.
//
// The tracking is syntactic and per-branch: a lock taken inside a branch
// is held for the rest of that branch, and a branch-local unlock does not
// leak out — conservative in the direction of silence, so a diagnostic
// from this analyzer is worth believing.
package lockhold

import (
	"go/ast"
	"go/token"
	"strings"

	"banscore/internal/lint/analysis"
)

// Analyzer is the lockhold check.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "forbid blocking operations while holding a mutex\n\n" +
		"Channel operations, default-less selects, time.Sleep or a clock's " +
		"Sleep, and " +
		"WaitGroup-style waits between Lock/Unlock pairs (or under a deferred " +
		"unlock) are reported: they are the static shape of the lock-ordering " +
		"deadlocks the chaos suite chases dynamically.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		timeName := analysis.ImportName(file, "time")
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &walker{pass: pass, timeName: timeName}
			w.walkBody(fn.Body, heldAtEntry(fn.Body))
		}
	}
	return nil
}

// held is the set of lock receiver expressions currently held, rendered
// as strings ("n.mu", "fs.mu").
type held map[string]bool

func newHeld() held { return make(held) }

func (h held) clone() held {
	c := make(held, len(h))
	for k := range h {
		c[k] = true
	}
	return c
}

// heldAtEntry is the locks a function's caller holds: each receiver whose
// first lock operation in the body, in source order, is an unlock — the
// "called with n.mu held" helper that drops the lock to wait.
func heldAtEntry(body *ast.BlockStmt) held {
	h, seen := newHeld(), map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if recv, op := lockCall(n); recv != "" && !seen[recv] {
			seen[recv] = true
			if op == "Unlock" || op == "RUnlock" {
				h[recv] = true
			}
		}
		return true
	})
	return h
}

// walker scans one function body, tracking lock state statement by
// statement.
type walker struct {
	pass     *analysis.Pass
	timeName string
}

// walkBody processes a statement list with the given entry lock state and
// returns the state at its end.
func (w *walker) walkBody(block *ast.BlockStmt, h held) held {
	for _, stmt := range block.List {
		h = w.walkStmt(stmt, h)
	}
	return h
}

// walkStmt processes one statement: updates lock state for Lock/Unlock
// calls, reports blocking operations while locks are held, and recurses
// into nested statements with branch-local copies of the state.
func (w *walker) walkStmt(stmt ast.Stmt, h held) held {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op := lockCall(s.X); recv != "" {
			switch op {
			case "Lock", "RLock":
				h[recv] = true
			case "Unlock", "RUnlock":
				delete(h, recv)
			}
			return h
		}
		w.checkExpr(s.X, h)

	case *ast.DeferStmt:
		// defer x.Unlock() keeps the lock held to the end of the
		// function; the guarded region is everything that follows, which
		// the ongoing scan covers by simply not releasing. A deferred
		// blocking call runs after the function body — out of scope.
		return h

	case *ast.SendStmt:
		w.reportBlocked(stmt.Pos(), "channel send", h)
		w.checkExpr(s.Value, h)

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.checkExpr(rhs, h)
		}
		for _, lhs := range s.Lhs {
			w.checkExpr(lhs, h)
		}

	case *ast.GoStmt:
		// The spawned body runs concurrently, not under our locks; scan
		// it with fresh state.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.walkBody(lit.Body, newHeld())
		}

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, h)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			h = w.walkStmt(s.Init, h)
		}
		w.checkExpr(s.Cond, h)
		w.walkBody(s.Body, h.clone())
		if s.Else != nil {
			w.walkStmt(s.Else, h.clone())
		}

	case *ast.ForStmt:
		if s.Init != nil {
			h = w.walkStmt(s.Init, h)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, h)
		}
		w.walkBody(s.Body, h.clone())

	case *ast.RangeStmt:
		w.checkExpr(s.X, h)
		w.walkBody(s.Body, h.clone())

	case *ast.BlockStmt:
		return w.walkBody(s, h)

	case *ast.SwitchStmt:
		if s.Init != nil {
			h = w.walkStmt(s.Init, h)
		}
		if s.Tag != nil {
			w.checkExpr(s.Tag, h)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				hc := h.clone()
				for _, st := range cc.Body {
					hc = w.walkStmt(st, hc)
				}
			}
		}

	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				hc := h.clone()
				for _, st := range cc.Body {
					hc = w.walkStmt(st, hc)
				}
			}
		}

	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.reportBlocked(s.Pos(), "select with no default clause", h)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				hc := h.clone()
				for _, st := range cc.Body {
					hc = w.walkStmt(st, hc)
				}
			}
		}

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, h)
	}
	return h
}

// checkExpr reports blocking operations found inside an expression while
// locks are held, and scans nested function literals with fresh state.
func (w *walker) checkExpr(expr ast.Expr, h held) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			w.walkBody(e.Body, newHeld())
			return false
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				w.reportBlocked(e.Pos(), "channel receive", h)
			}
		case *ast.CallExpr:
			if name, kind := blockingCall(e, w.timeName); name != "" {
				w.reportBlocked(e.Pos(), kind+" "+name, h)
			}
		}
		return true
	})
}

// reportBlocked emits one diagnostic per held lock for a blocking
// operation.
func (w *walker) reportBlocked(pos token.Pos, what string, h held) {
	for lock := range h {
		w.pass.Reportf(pos, "%s while holding %s; blocking under a mutex is the chaos suite's deadlock shape — move the operation outside the critical section", what, lock)
	}
}

// lockCall recognizes x.Lock/RLock/Unlock/RUnlock() and returns the
// rendered receiver and operation.
func lockCall(e ast.Node) (recv, op string) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if r := exprString(sel.X); r != "" {
			return r, sel.Sel.Name
		}
	}
	return "", ""
}

// blockingCall recognizes the call-shaped blocking operations: time.Sleep,
// a clock's .Sleep(), .WaitForShutdown(), and WaitGroup-style .Wait()
// (excluding sync.Cond receivers, which must hold the lock by contract).
func blockingCall(call *ast.CallExpr, timeName string) (name, kind string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Sleep":
		if base, ok := sel.X.(*ast.Ident); ok && timeName != "" && base.Name == timeName {
			return "time.Sleep", "call to"
		}
		if recv := exprString(sel.X); recv != "" {
			return recv + ".Sleep", "call to"
		}
	case "WaitForShutdown":
		return exprString(sel.X) + ".WaitForShutdown", "call to"
	case "Wait":
		recv := exprString(sel.X)
		if strings.Contains(strings.ToLower(recv), "cond") {
			return "", "" // sync.Cond.Wait releases the lock while parked
		}
		return recv + ".Wait", "call to"
	}
	return "", ""
}

// exprString renders simple receiver expressions ("mu", "n.mu",
// "p.state.mu"); anything more exotic renders as "".
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		if base := exprString(v.X); base != "" {
			return base + "." + v.Sel.Name
		}
	case *ast.ParenExpr:
		return exprString(v.X)
	}
	return ""
}
