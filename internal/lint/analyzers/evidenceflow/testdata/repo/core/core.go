// Package core mirrors the tracker surface for evidenceflow fixtures.
package core

type PeerID string

type RuleID int

type Result struct {
	Delta   int
	Applied bool
}

type MisbehaviorContext struct {
	Command       string
	PayloadDigest uint32
	PayloadLen    int
}

type Tracker struct{}

func (t *Tracker) MisbehavingCtx(id PeerID, inbound bool, rule RuleID, mctx MisbehaviorContext) Result {
	_ = mctx
	return Result{Delta: 10, Applied: true}
}

// Batch mirrors the staged score-mutation entry: Add's context is applied
// at a later Flush, so it is checked where it is staged.
type Batch struct{}

func (b *Batch) Add(id PeerID, inbound bool, rule RuleID, mctx MisbehaviorContext) { _ = mctx }

// Reset shows a reviewed waiver silencing the same finding — repo-level
// diagnostics must flow through the //lint:allow pass like any other.
func (t *Tracker) Reset(id PeerID) Result {
	//lint:allow evidenceflow(fixture: deliberate empty-context delegation under waiver)
	return t.MisbehavingCtx(id, false, 0, MisbehaviorContext{})
}
