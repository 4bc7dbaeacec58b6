// Package node exercises the evidenceflow sinks: clean evidence chains,
// interprocedural propagation, and the seeded violations.
package node

import (
	"core"
	"peer"
	"reputation"
)

type Node struct {
	tracker *core.Tracker
	batch   *core.Batch
	rep     *reputation.Engine
}

// misbehave is the canonical clean chain: LastEvidence feeds the context
// literal, the Result feeds the reputation penalty.
func (n *Node) misbehave(p *peer.Peer, cmd string, rule core.RuleID) core.Result {
	digest, payloadLen := p.LastEvidence()
	res := n.tracker.MisbehavingCtx(core.PeerID(p.ID()), p.Inbound(), rule, core.MisbehaviorContext{
		Command:       cmd,
		PayloadDigest: digest,
		PayloadLen:    payloadLen,
	})
	if res.Applied {
		n.rep.Penalize(p.ID(), res.Delta)
	}
	return res
}

// buildCtx propagates evidence taint through a helper's parameters into
// its result — the interprocedural summary path.
func buildCtx(cmd string, digest uint32, n int) core.MisbehaviorContext {
	return core.MisbehaviorContext{Command: cmd, PayloadDigest: digest, PayloadLen: n}
}

func (n *Node) misbehaveVia(p *peer.Peer, cmd string, rule core.RuleID) {
	d, l := p.LastEvidence()
	n.tracker.MisbehavingCtx(core.PeerID(p.ID()), p.Inbound(), rule, buildCtx(cmd, d, l))
}

// applyCtx passes its own parameter into the sink, transferring the
// evidence obligation to its callers.
func (n *Node) applyCtx(p *peer.Peer, rule core.RuleID, mctx core.MisbehaviorContext) {
	n.tracker.MisbehavingCtx(core.PeerID(p.ID()), p.Inbound(), rule, mctx)
}

// wrapped satisfies the transferred obligation with real evidence.
func (n *Node) wrapped(p *peer.Peer, rule core.RuleID) {
	d, l := p.LastEvidence()
	n.applyCtx(p, rule, core.MisbehaviorContext{PayloadDigest: d, PayloadLen: l})
}

// fabricated invents a context with no wire evidence on any path.
func (n *Node) fabricated(p *peer.Peer, rule core.RuleID) {
	n.tracker.MisbehavingCtx(core.PeerID(p.ID()), p.Inbound(), rule, core.MisbehaviorContext{ // want `misbehavior context without wire evidence`
		Command: "fabricated",
	})
}

// stage is the batched twin of applyCtx: the staged context is a sink
// argument too, and the obligation transfers to stage's callers.
func (n *Node) stage(p *peer.Peer, rule core.RuleID, mctx core.MisbehaviorContext) {
	n.batch.Add(core.PeerID(p.ID()), p.Inbound(), rule, mctx)
}

func (n *Node) staged(p *peer.Peer, rule core.RuleID) {
	d, l := p.LastEvidence()
	n.stage(p, rule, core.MisbehaviorContext{PayloadDigest: d, PayloadLen: l})
}

// stagedBad stages a hit no wire bytes back: it would be scored at the
// next flush, far from any call site the inline check covers.
func (n *Node) stagedBad(p *peer.Peer, rule core.RuleID) {
	n.batch.Add(core.PeerID(p.ID()), p.Inbound(), rule, core.MisbehaviorContext{}) // want `misbehavior context without wire evidence`
}

// wrappedBad feeds the obligation-carrying wrapper a fabricated context;
// the diagnostic lands here, at the call that broke the chain.
func (n *Node) wrappedBad(p *peer.Peer, rule core.RuleID) {
	n.applyCtx(p, rule, core.MisbehaviorContext{Command: "x"}) // want `misbehavior context without wire evidence`
}

// flatPenalty charges reputation with an invented weight instead of a
// misbehavior Result delta.
func (n *Node) flatPenalty(p *peer.Peer) {
	n.rep.Penalize(p.ID(), 100) // want `reputation penalty without misbehavior evidence`
}
