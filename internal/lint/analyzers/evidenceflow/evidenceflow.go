// Package evidenceflow defines the banlint analyzer that proves every
// misbehavior-score mutation is backed by wire evidence.
//
// The paper's defamation analysis (EXPERIMENTS.md, "Defamation resistance")
// rests on one structural property: a peer's score can only move when the
// node holds a digest of the actual bytes that peer sent. The forensics
// chain — wire.Codec.LastChecksum capturing the decoded payload's checksum,
// peer.LastEvidence snapshotting it per message, core.MisbehaviorContext
// carrying it into the ban ledger — makes every ban replayable to a
// concrete message. A code path that charges a score without threading
// that digest (a hardcoded MisbehaviorContext{}, a reputation penalty
// invented outside a misbehavior result) silently reintroduces the
// defamation vector the design closed: state the node cannot prove.
//
// This analyzer makes the property structural, with interprocedural taint
// tracking over the banvet dataflow tier. Evidence taint originates at
// calls to LastEvidence / LastChecksum; it propagates through assignments,
// composite literals, field selections, and — via per-function summaries
// computed to fixpoint over the whole repo — through helper functions and
// wrapper parameters. Two kinds of sink are checked:
//
//   - Tracker.MisbehavingCtx and Batch.Add (core), the inline and the
//     staged score-mutation entry: the MisbehaviorContext argument must
//     be evidence-tainted on some path, or be a parameter of the calling
//     function — in which case the obligation transfers to that
//     function's callers.
//   - Engine.Penalize (reputation): the weight must derive from the
//     Result of an evidence-carrying MisbehavingCtx call, so reputation
//     charges mirror ledger-backed hits rather than inventing their own.
//
// The analysis is a may-analysis: evidence on any path satisfies a sink.
// That is the lint trade — a function with one evidenced and one
// fabricated branch passes — but every fully evidence-free mutation path
// is caught, and the framework has no type information to do better
// soundly.
package evidenceflow

import (
	"go/ast"
	"strconv"
	"strings"

	"banscore/internal/lint/analysis"
	"banscore/internal/lint/analysis/banvet"
)

// Analyzer is the evidenceflow check.
var Analyzer = &analysis.Analyzer{
	Name: "evidenceflow",
	Doc: "score mutations must carry wire-derived misbehavior evidence\n\n" +
		"Interprocedural taint analysis: every call to Tracker.MisbehavingCtx " +
		"or Batch.Add must pass a MisbehaviorContext whose digest originates " +
		"from wire.Codec.LastChecksum or peer.LastEvidence; every " +
		"Engine.Penalize weight must derive from an evidence-carrying " +
		"misbehavior Result.",
	RunRepo: run,
}

// sourceCalls are the method names whose results carry fresh wire
// evidence: the codec's checksum of the last decoded payload and the
// peer's per-message evidence snapshot.
var sourceCalls = map[string]bool{
	"LastEvidence": true,
	"LastChecksum": true,
}

// srcOrigin is the taint origin meaning "derived from a wire-evidence
// source"; param origins are "p0", "p1", ...
const srcOrigin = "src"

// factSep joins variable name and origin into one fact string.
const factSep = "\x00"

func run(pass *analysis.RepoPass) error {
	c := &checker{
		pass:      pass,
		ix:        banvet.NewIndex(pass.Units),
		summaries: make(map[*banvet.Func]*summary),
	}
	for _, f := range c.ix.Funcs {
		c.summaries[f] = &summary{propagate: map[int]bool{}, sinkParams: map[int]bool{}}
	}
	// Interprocedural fixpoint: summaries feed call-site origins, which
	// feed summaries. The lattice (src-result bit, param subsets) is
	// finite and grows monotonically, so this terminates.
	for changed := true; changed; {
		changed = false
		for _, f := range c.ix.Funcs {
			if c.updateSummary(f) {
				changed = true
			}
		}
	}
	for _, f := range c.ix.Funcs {
		c.report(f)
	}
	return nil
}

// summary is one function's interprocedural contract.
type summary struct {
	// srcResult: the function's results are evidence-tainted regardless
	// of arguments.
	srcResult bool
	// propagate: argument taint at these param indices flows to the
	// results.
	propagate map[int]bool
	// sinkParams: these params flow into an evidence sink without
	// gaining taint inside the function, so callers must pass evidence-
	// tainted arguments there.
	sinkParams map[int]bool
}

type checker struct {
	pass      *analysis.RepoPass
	ix        *banvet.Index
	summaries map[*banvet.Func]*summary
}

// sinkKind classifies a callee.
type sinkKind int

const (
	notSink sinkKind = iota
	sinkCtx
	sinkPenalize
)

// classify reports whether callee is one of the score-mutation sinks.
// exact is Callees' confidence in the resolution. Batch.Add is a sink only
// through a typed receiver: "Add" is every WaitGroup's and counter's method
// name too, and the name-matched may-set of an untyped receiver would hang
// the obligation on all of them.
func classify(callee *banvet.Func, exact bool) sinkKind {
	switch {
	case callee.Recv.Name == "Tracker" && callee.Name == "MisbehavingCtx" && callee.Unit.HasPathSegment("core"),
		exact && callee.Recv.Name == "Batch" && callee.Name == "Add" && callee.Unit.HasPathSegment("core"):
		return sinkCtx
	case callee.Recv.Name == "Engine" && callee.Name == "Penalize" && callee.Unit.HasPathSegment("reputation"):
		return sinkPenalize
	}
	return notSink
}

// requiredArg is the argument index a sink demands evidence at.
func requiredArg(k sinkKind, call *ast.CallExpr) (int, bool) {
	switch k {
	case sinkCtx:
		if len(call.Args) > 0 {
			return len(call.Args) - 1, true
		}
	case sinkPenalize:
		if len(call.Args) >= 2 {
			return 1, true
		}
	}
	return 0, false
}

// entryFacts seeds the dataflow with each parameter tainted by its own
// param origin, so summaries can express "flows from param i".
func (c *checker) entryFacts(f *banvet.Func) banvet.Facts {
	facts := banvet.Facts{}
	i := 0
	if f.Decl.Type.Params != nil {
		for _, field := range f.Decl.Type.Params.List {
			for _, name := range field.Names {
				facts[name.Name+factSep+"p"+strconv.Itoa(i)] = true
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	return facts
}

// analyze runs the intra-function dataflow and returns the per-block
// entry facts.
func (c *checker) analyze(f *banvet.Func) map[*banvet.Block]banvet.Facts {
	env := c.ix.Env(f)
	return banvet.Forward(f.CFG(), c.entryFacts(f), func(b *banvet.Block, facts banvet.Facts) banvet.Facts {
		for _, n := range b.Nodes {
			c.transferNode(f, env, facts, n)
		}
		return facts
	})
}

// transferNode applies one CFG node's gen effects to facts.
func (c *checker) transferNode(f *banvet.Func, env map[string]banvet.TypeRef, facts banvet.Facts, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		c.transferAssign(f, env, facts, n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						addOrigins(facts, name.Name, c.origins(f, env, facts, vs.Values[i]))
					}
				}
			}
		}
	case *ast.RangeStmt:
		o := c.origins(f, env, facts, n.X)
		if id, ok := n.Key.(*ast.Ident); ok {
			addOrigins(facts, id.Name, o)
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			addOrigins(facts, id.Name, o)
		}
	}
}

func (c *checker) transferAssign(f *banvet.Func, env map[string]banvet.TypeRef, facts banvet.Facts, a *ast.AssignStmt) {
	assign := func(lhs ast.Expr, o map[string]bool) {
		// Field or element writes (x.f = v, x[i] = v) taint the base
		// variable whole — field-insensitive, the conservative merge.
		if id := baseIdent(lhs); id != nil && id.Name != "_" {
			addOrigins(facts, id.Name, o)
		}
	}
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Lhs {
			assign(a.Lhs[i], c.origins(f, env, facts, a.Rhs[i]))
		}
		return
	}
	if len(a.Rhs) == 1 {
		o := c.origins(f, env, facts, a.Rhs[0])
		for _, lhs := range a.Lhs {
			assign(lhs, o)
		}
	}
}

// inspectNode visits a CFG node's subtree. A RangeStmt sits in the loop
// head but syntactically contains the loop body, whose statements have
// their own blocks — descend only into its range/key/value expressions
// so body calls are not visited twice.
func inspectNode(n ast.Node, fn func(ast.Node) bool) {
	if rs, ok := n.(*ast.RangeStmt); ok {
		if rs.Key != nil {
			ast.Inspect(rs.Key, fn)
		}
		if rs.Value != nil {
			ast.Inspect(rs.Value, fn)
		}
		ast.Inspect(rs.X, fn)
		return
	}
	ast.Inspect(n, fn)
}

// baseIdent unwraps selectors, indexes, stars, and parens to the root
// identifier of an lvalue, nil when the root is not an identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t
		case *ast.SelectorExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		default:
			return nil
		}
	}
}

func addOrigins(facts banvet.Facts, name string, origins map[string]bool) {
	for o := range origins {
		facts[name+factSep+o] = true
	}
}

// origins computes the taint origins of an expression: srcOrigin and/or
// "p<i>" param markers, empty when untainted.
func (c *checker) origins(f *banvet.Func, env map[string]banvet.TypeRef, facts banvet.Facts, e ast.Expr) map[string]bool {
	out := map[string]bool{}
	c.addExprOrigins(f, env, facts, e, out)
	return out
}

func (c *checker) addExprOrigins(f *banvet.Func, env map[string]banvet.TypeRef, facts banvet.Facts, e ast.Expr, out map[string]bool) {
	switch e := e.(type) {
	case *ast.Ident:
		prefix := e.Name + factSep
		for k := range facts {
			if strings.HasPrefix(k, prefix) {
				out[k[len(prefix):]] = true
			}
		}
	case *ast.SelectorExpr:
		c.addExprOrigins(f, env, facts, e.X, out)
	case *ast.ParenExpr:
		c.addExprOrigins(f, env, facts, e.X, out)
	case *ast.StarExpr:
		c.addExprOrigins(f, env, facts, e.X, out)
	case *ast.UnaryExpr:
		c.addExprOrigins(f, env, facts, e.X, out)
	case *ast.IndexExpr:
		c.addExprOrigins(f, env, facts, e.X, out)
	case *ast.TypeAssertExpr:
		c.addExprOrigins(f, env, facts, e.X, out)
	case *ast.BinaryExpr:
		c.addExprOrigins(f, env, facts, e.X, out)
		c.addExprOrigins(f, env, facts, e.Y, out)
	case *ast.KeyValueExpr:
		c.addExprOrigins(f, env, facts, e.Value, out)
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			c.addExprOrigins(f, env, facts, elt, out)
		}
	case *ast.CallExpr:
		c.addCallOrigins(f, env, facts, e, out)
	}
}

func (c *checker) addCallOrigins(f *banvet.Func, env map[string]banvet.TypeRef, facts banvet.Facts, call *ast.CallExpr, out map[string]bool) {
	// A call to a wire-evidence source taints its results outright.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sourceCalls[sel.Sel.Name] {
		out[srcOrigin] = true
		return
	}
	callees, exact := c.ix.Callees(f, env, call)
	if exact && len(callees) == 1 {
		callee := callees[0]
		// The Result of an evidence-checked MisbehavingCtx call is itself
		// evidence-carrying: it is what Penalize weights must derive from.
		// (Whether the call's OWN context argument is evidenced is checked
		// at that call site, not here.)
		if classify(callee, true) == sinkCtx {
			out[srcOrigin] = true
			return
		}
		s := c.summaries[callee]
		if s.srcResult {
			out[srcOrigin] = true
		}
		for p := range s.propagate {
			if p < len(call.Args) {
				c.addExprOrigins(f, env, facts, call.Args[p], out)
			}
		}
		// Taint through the receiver of method chains.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			c.addExprOrigins(f, env, facts, sel.X, out)
		}
		return
	}
	// Unresolved or external call: propagate conservatively through every
	// argument and the receiver, so helper chains outside the index
	// (hashing, formatting) do not launder taint away.
	for _, cand := range callees {
		if c.summaries[cand].srcResult || classify(cand, false) == sinkCtx {
			out[srcOrigin] = true
		}
	}
	for _, arg := range call.Args {
		c.addExprOrigins(f, env, facts, arg, out)
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		c.addExprOrigins(f, env, facts, sel.X, out)
	}
}

// updateSummary recomputes f's summary and sink obligations; reports
// whether anything grew.
func (c *checker) updateSummary(f *banvet.Func) bool {
	if f.Decl.Body == nil {
		return false
	}
	env := c.ix.Env(f)
	in := c.analyze(f)
	s := c.summaries[f]
	grew := false

	for _, b := range f.CFG().Blocks {
		facts := in[b].Clone()
		for _, n := range b.Nodes {
			// Collect return origins and sink obligations BEFORE applying
			// the node's own gen effects, matching evaluation order.
			inspectNode(n, func(m ast.Node) bool {
				switch m := m.(type) {
				case *ast.ReturnStmt:
					for _, res := range m.Results {
						for o := range c.origins(f, env, facts, res) {
							if o == srcOrigin {
								if !s.srcResult {
									s.srcResult, grew = true, true
								}
							} else if p, ok := paramIndex(o); ok {
								if !s.propagate[p] {
									s.propagate[p], grew = true, true
								}
							}
						}
					}
				case *ast.CallExpr:
					for _, idx := range c.sinkObligations(f, env, m) {
						o := c.origins(f, env, facts, m.Args[idx])
						if o[srcOrigin] {
							continue
						}
						for origin := range o {
							if p, ok := paramIndex(origin); ok && !s.sinkParams[p] {
								s.sinkParams[p], grew = true, true
							}
						}
					}
				}
				return true
			})
			c.transferNode(f, env, facts, n)
		}
	}
	return grew
}

// sinkObligations returns the argument indices of call that must carry
// evidence: direct sink requirements plus the callee's own sinkParams.
func (c *checker) sinkObligations(f *banvet.Func, env map[string]banvet.TypeRef, call *ast.CallExpr) []int {
	callees, exact := c.ix.Callees(f, env, call)
	need := map[int]bool{}
	for _, callee := range callees {
		if idx, ok := requiredArg(classify(callee, exact), call); ok {
			need[idx] = true
		}
		for p := range c.summaries[callee].sinkParams {
			if p < len(call.Args) {
				need[p] = true
			}
		}
	}
	var out []int
	for i := range call.Args {
		if need[i] {
			out = append(out, i)
		}
	}
	return out
}

// report walks f's call sites with the converged facts and emits the
// diagnostics.
func (c *checker) report(f *banvet.Func) {
	if f.Decl.Body == nil {
		return
	}
	env := c.ix.Env(f)
	in := c.analyze(f)
	for _, b := range f.CFG().Blocks {
		facts := in[b].Clone()
		for _, n := range b.Nodes {
			inspectNode(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				c.reportCall(f, env, facts, call)
				return true
			})
			c.transferNode(f, env, facts, n)
		}
	}
}

func (c *checker) reportCall(f *banvet.Func, env map[string]banvet.TypeRef, facts banvet.Facts, call *ast.CallExpr) {
	callees, exact := c.ix.Callees(f, env, call)
	for _, callee := range callees {
		kind := classify(callee, exact)
		checked := map[int]bool{}
		if idx, ok := requiredArg(kind, call); ok {
			checked[idx] = true
		}
		for p := range c.summaries[callee].sinkParams {
			if p < len(call.Args) {
				checked[p] = true
			}
		}
		for idx := range call.Args {
			if !checked[idx] {
				continue
			}
			o := c.origins(f, env, facts, call.Args[idx])
			if o[srcOrigin] {
				continue
			}
			if hasParamOrigin(o) {
				// The obligation transfers to f's callers via
				// sinkParams; they are checked at their own sites.
				continue
			}
			switch kind {
			case sinkPenalize:
				c.pass.Reportf(f.Unit, call.Pos(),
					"reputation penalty without misbehavior evidence: the weight passed to %s does not derive from an evidence-carrying MisbehavingCtx Result on any path",
					callee.QName())
			default:
				c.pass.Reportf(f.Unit, call.Pos(),
					"misbehavior context without wire evidence: the context reaching %s carries no digest from wire.Codec.LastChecksum or peer.LastEvidence on any path",
					callee.QName())
			}
		}
	}
}

func paramIndex(origin string) (int, bool) {
	if len(origin) < 2 || origin[0] != 'p' {
		return 0, false
	}
	n, err := strconv.Atoi(origin[1:])
	return n, err == nil
}

func hasParamOrigin(o map[string]bool) bool {
	for origin := range o {
		if _, ok := paramIndex(origin); ok {
			return true
		}
	}
	return false
}
