package core

// BatchOp is one staged misbehavior application: the arguments of a
// MisbehavingCtx call captured for deferred execution.
type BatchOp struct {
	ID      PeerID
	Inbound bool
	Rule    RuleID
	Ctx     MisbehaviorContext
}

// Batch stages misbehavior applications so an event-loop shard can apply a
// connection visit's worth of scoring hits with one Tracker shard-lock
// acquisition instead of one per hit. Flush applies the staged ops strictly
// in staging order, through the same applyLocked body the direct path runs,
// so the per-peer Seq/Score linearization the forensics ledger guarantees
// is exactly that of the equivalent unbatched call sequence wherever the
// flush boundaries fall: the batched and unbatched paths produce
// byte-identical Tracker exports.
//
// A Batch is owned by a single event-loop shard and is not safe for
// concurrent use. It holds no locks between calls; only Flush touches the
// Tracker, one shard lock at a time (never nested).
type Batch struct {
	t      *Tracker
	staged []stagedOp
}

// stagedOp is the one staging record: the op as staged, the lock-free
// gate's verdict on it (taken at Add) and, once Flush's locked walk has
// passed it, its scoring outcome.
type stagedOp struct {
	op     BatchOp
	name   string // the rule's Table I name, for the forensics record
	score  int
	total  int
	shard  uint32 // tracker shard of op.ID
	ok     bool   // passed the mode/rule/role gate
	banned bool
}

// NewBatch returns an empty staging buffer against the tracker.
func (t *Tracker) NewBatch() *Batch { return &Batch{t: t} }

// Add stages one misbehavior application. Nothing is scored until Flush.
func (b *Batch) Add(id PeerID, inbound bool, rule RuleID, mctx MisbehaviorContext) {
	n := len(b.staged)
	if n == cap(b.staged) {
		b.grow()
	}
	score, name, ok := b.t.prepare(inbound, rule)
	b.staged = b.staged[:n+1]
	b.staged[n] = stagedOp{
		op:    BatchOp{ID: id, Inbound: inbound, Rule: rule, Ctx: mctx},
		name:  name,
		score: score,
		shard: shardFor(id, b.t.mask),
		ok:    ok,
	}
}

// grow keeps append, the only allocation a Batch makes, out of the hot path:
// it extends the capacity and leaves the length alone.
func (b *Batch) grow() { b.staged = append(b.staged, stagedOp{})[:len(b.staged)] }

// Len reports how many applications are staged.
func (b *Batch) Len() int { return len(b.staged) }

// Flush applies every staged op and resets the buffer. One walk in staging
// order takes a tracker shard lock per maximal run of consecutive ops on
// the same shard — a connection visit stages one peer's hits, so a whole
// burst is one acquisition — and runs applyLocked under it; locks are
// strictly sequential, never held together. A second walk, outside every
// lock, then runs the post-lock side effects (OnApplied, OnBan, ban-list
// insertion) in staging order and hands fn, if non-nil, each op with its
// Result — ops rejected by the mode/rule/role gate report the zero Result,
// exactly as the direct call would have returned.
func (b *Batch) Flush(fn func(op BatchOp, res Result)) {
	t, n := b.t, len(b.staged)
	for i := 0; i < n; {
		run := b.staged[i].shard
		s := &t.shards[run]
		s.mu.Lock()
		for ; i < n && b.staged[i].shard == run; i++ {
			if o := &b.staged[i]; o.ok {
				o.total, o.banned = t.applyLocked(s, o.op.ID, o.op.Rule, o.name, o.score, o.op.Ctx)
			}
		}
		s.mu.Unlock()
	}
	for i := range b.staged {
		o := &b.staged[i]
		var res Result
		if o.ok {
			res = t.finish(o.op.ID, o.op.Rule, o.score, o.total, o.banned)
		}
		if fn != nil {
			fn(o.op, res)
		}
	}
	b.staged = b.staged[:0]
}
