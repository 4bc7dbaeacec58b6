// Package banvet is the dataflow tier of the lint framework: a
// control-flow-graph builder, a syntactic whole-repo function/type index
// with call resolution, and a forward may-dataflow engine. The per-package
// analyzers in internal/lint/analyzers are single-file syntax walks; the
// banvet analyzer, lockorder, instead reasons about paths — which locks a
// function may hold when it calls another — across package boundaries.
//
// Like the rest of the framework, banvet is deliberately stdlib-only and
// type-checker-free. Types are inferred syntactically (declared struct
// fields, parameter lists, composite literals, constructor results), and
// every inference carries a conservative default: an unresolvable call or
// receiver degrades to "unknown", and the analyzer chooses the sound
// direction for its property (assume held) so missing precision can only
// cause noise that a reviewed //lint:allow waiver records, never a silent
// pass.
package banvet

import "go/ast"

// A Block is one basic block: a maximal straight-line run of statements
// and the expressions evaluated with them. Nodes appear in evaluation
// order. Control constructs contribute their interesting sub-nodes to the
// blocks that evaluate them (an if's condition sits in the block that
// branches on it; the if statement itself does not appear).
type Block struct {
	// Index is the block's position in CFG.Blocks — creation order,
	// which is also a stable iteration order for worklists.
	Index int

	// Nodes are the statements and control expressions evaluated in
	// this block, in order.
	Nodes []ast.Node

	// Succs are the blocks control may reach next.
	Succs []*Block
}

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters first.
	Entry *Block

	// Exit is the synthetic sink every return (and the fall-off end of
	// the body) flows to. It holds no nodes.
	Exit *Block

	// Blocks is every block, Entry first, in creation order.
	Blocks []*Block
}

// BuildCFG constructs the control-flow graph of body. The graph is an
// over-approximation suitable for may-analyses: every syntactically
// possible branch gets an edge, loops get a back edge, and unreachable
// code after a return or branch lands in a block with no predecessors.
// goto is handled conservatively (an edge to Exit, since the target may
// be anywhere); the repository style does not use goto outside generated
// code, so the imprecision is theoretical.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	b.edge(b.cur, b.cfg.Exit)
	return b.cfg
}

// cfgBuilder carries the construction state: the block under
// construction and the break/continue targets of the enclosing loops and
// switches.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// loops stacks the enclosing breakable/continuable constructs,
	// innermost last.
	loops []loopFrame
}

// loopFrame is one enclosing construct a break or continue may target.
type loopFrame struct {
	label    string // enclosing label, "" if unlabeled
	brk      *Block // break target (nil only never)
	cont     *Block // continue target; nil for switch/select frames
	isSwitch bool
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt builds one statement into the graph. label is the pending label
// when the statement is the body of a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		if s.Tag != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Tag)
		}
		b.switchBody(s.Body, label)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Assign)
		b.switchBody(s.Body, label)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.branchStmt(s)

	default:
		// Straight-line statements: assignments, expression statements,
		// declarations, go/defer, sends, inc/dec, empty.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Init)
	}
	b.cur.Nodes = append(b.cur.Nodes, s.Cond)
	cond := b.cur

	after := b.newBlock()
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.edge(b.cur, after)

	if s.Else != nil {
		els := b.newBlock()
		b.edge(cond, els)
		b.cur = els
		b.stmt(s.Else, "")
		b.edge(b.cur, after)
	} else {
		b.edge(cond, after)
	}
	b.cur = after
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}

	after := b.newBlock()
	if s.Cond != nil {
		b.edge(head, after)
	}

	// continue goes to the post statement's block when there is one,
	// straight back to the head otherwise.
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		cont = post
	}

	body := b.newBlock()
	b.edge(head, body)
	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.edge(b.cur, cont)
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	// The range expression is evaluated once, on entry; the per-iteration
	// key/value assignment is modeled by placing the RangeStmt node itself
	// in the loop head, where analyzers can read s.Key/s.Value/s.X.
	head := b.newBlock()
	b.edge(b.cur, head)
	head.Nodes = append(head.Nodes, s)

	after := b.newBlock()
	b.edge(head, after) // ranges may iterate zero times

	body := b.newBlock()
	b.edge(head, body)
	b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.loops = b.loops[:len(b.loops)-1]
	b.edge(b.cur, head)
	b.cur = after
}

func (b *cfgBuilder) switchBody(body *ast.BlockStmt, label string) {
	cond := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after, isSwitch: true})

	// First pass: allocate each clause's block so fallthrough can edge to
	// the next clause.
	var clauses []*ast.CaseClause
	var blocks []*Block
	hasDefault := false
	for _, cs := range body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		clauses = append(clauses, cc)
		blocks = append(blocks, b.newBlock())
	}
	for i, cc := range clauses {
		blk := blocks[i]
		b.edge(cond, blk)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		b.cur = blk
		fellThrough := false
		for j, cs := range cc.Body {
			if br, ok := cs.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" && j == len(cc.Body)-1 {
				if i+1 < len(blocks) {
					b.edge(b.cur, blocks[i+1])
				}
				fellThrough = true
				break
			}
			b.stmt(cs, "")
		}
		if !fellThrough {
			b.edge(b.cur, after)
		}
	}
	if !hasDefault {
		b.edge(cond, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	cond := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after, isSwitch: true})
	reached := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.edge(cond, blk)
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.cur = blk
		b.stmtList(cc.Body)
		b.edge(b.cur, after)
		reached = true
	}
	if !reached {
		// select {} blocks forever; still give after a path so the graph
		// stays connected for analyses that walk forward.
		b.edge(cond, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if s.Label == nil || fr.label == s.Label.Name {
				b.edge(b.cur, fr.brk)
				break
			}
		}
	case "continue":
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if fr.isSwitch {
				continue // continue skips switch/select frames
			}
			if s.Label == nil || fr.label == s.Label.Name {
				b.edge(b.cur, fr.cont)
				break
			}
		}
	case "goto":
		// Conservative: the target could be anywhere, so route to Exit
		// and let the successor block start fresh.
		b.edge(b.cur, b.cfg.Exit)
	case "fallthrough":
		// Reached only when a fallthrough is not the final statement of
		// a case body (invalid Go); ignore.
	}
	b.cur = b.newBlock() // unreachable continuation
}
