package node

import (
	"banscore/internal/core"
	"banscore/internal/peer"
)

// MisbehaviorBatch adapts the tracker's core.Batch to the node: staged hits
// flush through the shared applyLocked body (one tracker shard-lock
// acquisition per run of hits on the same tracker shard), and each result
// is then handed to Node.scored with the connection that staged it — the
// same call the inline path makes.
//
// One MisbehaviorBatch belongs to one event-loop shard: StageMisbehavior
// runs on the shard's worker via the peer's MisbehaviorSink, and the shard
// calls Flush after each connection visit. It is not safe for concurrent
// use.
type MisbehaviorBatch struct {
	n *Node
	b *core.Batch

	// staged holds the reporting peers parallel to the core batch's ops,
	// so a ban can disconnect the exact connection that earned it (the
	// tracker deals in identifiers, not connections).
	staged []*peer.Peer
}

var _ peer.MisbehaviorSink = (*MisbehaviorBatch)(nil)

// NewMisbehaviorBatch returns an empty staging buffer bound to the node's
// tracker.
func (n *Node) NewMisbehaviorBatch() *MisbehaviorBatch {
	return &MisbehaviorBatch{n: n, b: n.tracker.NewBatch()}
}

// StageMisbehavior implements peer.MisbehaviorSink.
func (mb *MisbehaviorBatch) StageMisbehavior(p *peer.Peer, rule core.RuleID, mctx core.MisbehaviorContext) {
	mb.b.Add(p.ID(), p.Inbound(), rule, mctx)
	n := len(mb.staged)
	if n == cap(mb.staged) {
		mb.grow()
	}
	mb.staged = mb.staged[:n+1]
	mb.staged[n] = p
}

// grow keeps append out of the hot path: it extends the capacity and leaves
// the length alone.
func (mb *MisbehaviorBatch) grow() { mb.staged = append(mb.staged, nil)[:len(mb.staged)] }

// Flush applies every staged hit and runs its consequences, in staging
// order.
func (mb *MisbehaviorBatch) Flush() {
	i := 0
	mb.b.Flush(func(_ core.BatchOp, res core.Result) {
		mb.n.scored(mb.staged[i], res)
		i++
	})
	clear(mb.staged)
	mb.staged = mb.staged[:0]
}
