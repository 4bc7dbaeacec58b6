// Package lockorder defines the banlint analyzer that proves the repo's
// lock-acquisition order is cycle-free.
//
// The concurrent core's deadlock-freedom argument is a global order:
// tracker shard locks are held over forensics-ledger appends, the
// reputation engine nests peer shard → group shard → netgroup, banstore's
// store mutex and the observer's poll-state mutexes sit below their
// callers. Each nesting is locally documented, but the property that
// keeps the fleet from deadlocking is the conjunction — no pair of lock
// classes is ever taken in both orders anywhere in the tree. A single
// new call path that inverts one pair (an observer ingest that calls
// back into banstore under its own lock, say) compiles, passes tests
// that never hit the interleaving, and deadlocks in production.
//
// This analyzer makes the order structural. Over the banvet dataflow
// tier it builds the whole-repo lock-acquisition graph: a node per lock
// class (owning struct type + mutex field, for every sync.Mutex/RWMutex
// field of a struct in the scoped packages), and an edge A → B wherever
// B is acquired — directly or through any chain of calls, resolved
// interprocedurally — while A may be held. A cycle in that graph is an
// ABBA deadlock candidate and fails the build.
//
// Two deliberate exemptions keep the check sharp:
//
//   - Self-edges (a lock class acquired while another instance of the
//     same class is held) are ignored: sharded same-class locks are
//     index-ordered by convention, which this syntactic tier cannot
//     verify — lockhold still bounds what happens under them.
//   - Locks whose owner cannot be resolved syntactically are not
//     tracked; the graph covers the named mutex fields of the scoped
//     packages, which is where every documented nesting lives.
package lockorder

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"banscore/internal/lint/analysis"
	"banscore/internal/lint/analysis/banvet"
)

// DefaultScope lists the import-path segments whose struct-owned mutexes
// participate in the lock-order graph: the concurrent core, the
// crash-safe ban store, the fleet observer, and the reputation engine —
// the packages whose locks nest across calls — plus wal, which both stores
// call with their own mutex held and which must stay lock-free.
var DefaultScope = []string{"core", "banstore", "observer", "wal", "reputation"}

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "whole-repo lock-acquisition graph must be cycle-free\n\n" +
		"Builds the acquisition graph over every sync.Mutex/RWMutex field of " +
		"structs in the scoped packages (core, banstore, observer, " +
		"reputation), adding an edge A->B when B is acquired while A may be " +
		"held, including through interprocedural call chains. An ABBA cycle " +
		"is reported at each acquisition site on the cycle.",
	RunRepo: run,
}

// acquireOps / releaseOps name the mutex methods that take and drop a
// lock. Read and write sides map to the same lock class: ordering, not
// exclusion, is what the graph tracks.
var acquireOps = map[string]bool{"Lock": true, "RLock": true}
var releaseOps = map[string]bool{"Unlock": true, "RUnlock": true}

func run(pass *analysis.RepoPass) error {
	c := &checker{
		pass:       pass,
		ix:         banvet.NewIndex(pass.Units),
		lockFields: map[banvet.TypeRef]map[string]bool{},
		mayAcq:     map[*banvet.Func]map[string]bool{},
	}
	c.findLockFields()
	if len(c.lockFields) == 0 {
		return nil
	}
	// Interprocedural fixpoint: which lock classes may each function
	// acquire, transitively.
	for _, f := range c.ix.Funcs {
		c.mayAcq[f] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range c.ix.Funcs {
			if c.updateMayAcquire(f) {
				changed = true
			}
		}
	}
	// Edge collection: a held-set dataflow per function.
	for _, f := range c.ix.Funcs {
		c.collectEdges(f)
	}
	c.reportCycles()
	return nil
}

// edge is one observed ordered acquisition A then B, at its first site.
type edge struct {
	from, to string
	unit     *analysis.RepoUnit
	pos      token.Pos
	inFunc   string
}

type checker struct {
	pass *analysis.RepoPass
	ix   *banvet.Index

	// lockFields: owner struct type -> mutex field names.
	lockFields map[banvet.TypeRef]map[string]bool

	// mayAcq: lock classes a function may acquire, transitively.
	mayAcq map[*banvet.Func]map[string]bool

	// edges, keyed "from\x00to", first site wins (deterministic: funcs
	// and blocks iterate in declaration order).
	edges    map[string]*edge
	edgeKeys []string
}

func (c *checker) findLockFields() {
	for _, u := range c.pass.Units {
		inScope := false
		for _, seg := range DefaultScope {
			if u.HasPathSegment(seg) {
				inScope = true
				break
			}
		}
		if !inScope {
			continue
		}
		for _, file := range u.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if _, ok := ts.Type.(*ast.StructType); !ok {
						continue
					}
					owner := banvet.TypeRef{Pkg: u.PkgPath, Name: ts.Name.Name}
					for name, ft := range c.ix.Struct(owner) {
						if ft.Pkg == "sync" && (ft.Name == "Mutex" || ft.Name == "RWMutex") {
							if c.lockFields[owner] == nil {
								c.lockFields[owner] = map[string]bool{}
							}
							c.lockFields[owner][name] = true
						}
					}
				}
			}
		}
	}
}

// lockClass resolves a mutex method call to its lock class key ("" when
// the receiver is not a tracked struct-owned mutex). The call shape is
// owner.field.Lock(): the selector's base types the owning struct, the
// selector names the mutex field.
func (c *checker) lockClass(f *banvet.Func, env map[string]banvet.TypeRef, call *ast.CallExpr) (key string, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (!acquireOps[sel.Sel.Name] && !releaseOps[sel.Sel.Name]) {
		return "", ""
	}
	ms, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	owner := c.ix.TypeOf(f, env, ms.X)
	if owner.IsZero() || !c.lockFields[owner][ms.Sel.Name] {
		return "", ""
	}
	return owner.String() + "." + ms.Sel.Name, sel.Sel.Name
}

// lockOps extracts the tracked lock operations of one CFG node in
// evaluation order, skipping function literals (they run elsewhere) and
// defers (a deferred unlock releases at return, not here — the lock is
// held for the rest of the body).
type lockOp struct {
	key     string
	acquire bool
	pos     token.Pos
	call    *ast.CallExpr
}

func (c *checker) nodeOps(f *banvet.Func, env map[string]banvet.TypeRef, n ast.Node) []lockOp {
	var ops []lockOp
	var walk func(ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				return false
			case *ast.RangeStmt:
				// Body statements live in their own blocks.
				if m.Key != nil {
					walk(m.Key)
				}
				if m.Value != nil {
					walk(m.Value)
				}
				walk(m.X)
				return false
			case *ast.CallExpr:
				if key, op := c.lockClass(f, env, m); key != "" {
					ops = append(ops, lockOp{key: key, acquire: acquireOps[op], pos: m.Pos(), call: m})
				} else {
					ops = append(ops, lockOp{call: m, pos: m.Pos()})
				}
			}
			return true
		})
	}
	walk(n)
	return ops
}

// calleeAcquires returns the lock classes the call may acquire,
// transitively. Only exact resolutions (typed receiver, import-qualified
// or same-package name) are traversed: the name-only fallback may-set
// would conflate same-named methods of unrelated types (both banstore
// and observer own a Store with a Sync), and a build-failing gate cannot
// afford cycles invented by name coincidence. The cost is that a lock
// taken behind an interface call is not seen — the scoped packages call
// their lock-owning neighbors concretely.
func (c *checker) calleeAcquires(f *banvet.Func, env map[string]banvet.TypeRef, call *ast.CallExpr) map[string]bool {
	callees, exact := c.ix.Callees(f, env, call)
	if !exact || len(callees) == 0 {
		return nil
	}
	out := map[string]bool{}
	for _, g := range callees {
		for k := range c.mayAcq[g] {
			out[k] = true
		}
	}
	return out
}

func (c *checker) updateMayAcquire(f *banvet.Func) bool {
	if f.Decl.Body == nil {
		return false
	}
	env := c.ix.Env(f)
	acq := c.mayAcq[f]
	grew := false
	add := func(k string) {
		if !acq[k] {
			acq[k] = true
			grew = true
		}
	}
	for _, b := range f.CFG().Blocks {
		for _, n := range b.Nodes {
			for _, op := range c.nodeOps(f, env, n) {
				if op.key != "" {
					if op.acquire {
						add(op.key)
					}
					continue
				}
				for k := range c.calleeAcquires(f, env, op.call) {
					add(k)
				}
			}
		}
	}
	return grew
}

// collectEdges runs the may-hold dataflow over f and records every
// ordered acquisition pair.
func (c *checker) collectEdges(f *banvet.Func) {
	if f.Decl.Body == nil {
		return
	}
	env := c.ix.Env(f)
	transfer := func(b *banvet.Block, held banvet.Facts) banvet.Facts {
		for _, n := range b.Nodes {
			for _, op := range c.nodeOps(f, env, n) {
				if op.key == "" {
					continue
				}
				if op.acquire {
					held[op.key] = true
				} else {
					delete(held, op.key)
				}
			}
		}
		return held
	}
	in := banvet.Forward(f.CFG(), banvet.Facts{}, transfer)
	for _, b := range f.CFG().Blocks {
		held := in[b].Clone()
		for _, n := range b.Nodes {
			for _, op := range c.nodeOps(f, env, n) {
				if op.key != "" {
					if op.acquire {
						for a := range held {
							c.addEdge(a, op.key, f, op.pos)
						}
						held[op.key] = true
					} else {
						delete(held, op.key)
					}
					continue
				}
				if len(held) == 0 {
					continue
				}
				for to := range c.calleeAcquires(f, env, op.call) {
					for a := range held {
						c.addEdge(a, to, f, op.pos)
					}
				}
			}
		}
	}
}

func (c *checker) addEdge(from, to string, f *banvet.Func, pos token.Pos) {
	if from == to {
		return // same-class nesting: index-ordered by convention
	}
	k := from + "\x00" + to
	if c.edges == nil {
		c.edges = map[string]*edge{}
	}
	if _, ok := c.edges[k]; ok {
		return
	}
	c.edges[k] = &edge{from: from, to: to, unit: f.Unit, pos: pos, inFunc: f.QName()}
	c.edgeKeys = append(c.edgeKeys, k)
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports every edge inside a multi-node SCC at its site.
func (c *checker) reportCycles() {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for _, k := range c.edgeKeys {
		e := c.edges[k]
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	scc := tarjan(nodes, adj)
	comp := map[string]int{}
	for i, group := range scc {
		for _, n := range group {
			comp[n] = i
		}
	}
	for _, k := range c.edgeKeys {
		e := c.edges[k]
		if comp[e.from] != comp[e.to] || len(scc[comp[e.from]]) < 2 {
			continue
		}
		members := append([]string(nil), scc[comp[e.from]]...)
		sort.Strings(members)
		c.pass.Reportf(e.unit, e.pos,
			"lock order cycle: %s acquired while %s is held in %s, but the reverse order also occurs (cycle members: %s)",
			e.to, e.from, e.inFunc, strings.Join(members, ", "))
	}
}

// tarjan computes strongly connected components; deterministic because
// roots iterate in sorted order.
func tarjan(nodes map[string]bool, adj map[string][]string) [][]string {
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, succs := range adj {
		sort.Strings(succs)
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var group []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				group = append(group, w)
				if w == v {
					break
				}
			}
			out = append(out, group)
		}
	}
	for _, v := range order {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return out
}
