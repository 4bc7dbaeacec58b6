package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"testing"
	"time"
)

// fixedClock gives both trackers in the equivalence test the same
// timestamps, so exported BanRecords and ban expiries can be compared
// byte for byte.
func fixedClock() func() time.Time {
	base := time.Unix(1700000000, 0).UTC()
	return func() time.Time { return base }
}

// canonicalExport serializes the complete observable state of a tracker —
// scores, good scores, ban list, forensics ledger — into canonical JSON.
// Maps marshal with sorted keys; ledger chains are sorted by peer because
// cross-peer first-appearance order in the ledger is a property of
// scheduling (concurrent direct calls race at the ledger too), while
// per-peer chain content and Seq are the linearized facts the batch must
// preserve exactly.
func canonicalExport(t *testing.T, tr *Tracker, ledger *Ledger) []byte {
	t.Helper()
	scores, good := tr.ExportScores()
	bans := tr.BanList().Export()
	st := ledger.ExportState()
	sort.Slice(st.Chains, func(i, j int) bool { return st.Chains[i].Peer < st.Chains[j].Peer })
	out, err := json.Marshal(struct {
		Scores map[PeerID]int
		Good   map[PeerID]int
		Bans   map[PeerID]time.Time
		Ledger LedgerState
	}{scores, good, bans, st})
	if err != nil {
		t.Fatalf("marshal export: %v", err)
	}
	return out
}

// opSequence builds a churn-heavy mixed op stream: many peers spread over
// every shard, repeat offenders crossing the ban threshold mid-stream and
// re-offending after, role-restricted rules against both roles, and rules
// deprecated in the configured version (which must gate identically).
func opSequence() []BatchOp {
	var ops []BatchOp
	for i := 0; i < 400; i++ {
		id := PeerID(fmt.Sprintf("[10.1.%d.%d]:%d", i%7, i%53, 10000+i%11))
		ops = append(ops, BatchOp{
			ID: id, Inbound: i%3 != 0, Rule: VersionDuplicate,
			Ctx: MisbehaviorContext{Command: "version", PayloadDigest: uint32(i), PayloadLen: 86},
		})
		if i%5 == 0 {
			ops = append(ops, BatchOp{
				ID: id, Inbound: i%3 != 0, Rule: BlockMutated,
				Ctx: MisbehaviorContext{Command: "block", PayloadDigest: uint32(i * 31), PayloadLen: 1000},
			})
		}
		if i%9 == 0 {
			// Role-restricted: outbound-only rule against an inbound peer
			// must be a no-op on both paths.
			ops = append(ops, BatchOp{ID: id, Inbound: true, Rule: BlockCachedInvalid})
		}
	}
	return ops
}

func newEquivTracker() (*Tracker, *Ledger) {
	ledger := NewLedger(0, 0)
	tr := NewTracker(Config{
		Version:   V0_20_0,
		Clock:     fixedClock(),
		Forensics: ledger,
	})
	return tr, ledger
}

// TestBatchEquivalence drives the same op sequence through the direct
// MisbehavingCtx path and through Batch staging flushed in uneven chunks,
// and requires byte-identical canonical exports plus op-for-op identical
// Results — the acceptance bar for the event loop's batched ban path.
//
// Every 37th op is its connection's last: the peer disconnects right after
// it and the tracker forgets the identifier. On the direct path the hit is
// already scored by then. On the batched path it is still staged, so the
// forget runs first and the flush would resurrect the score; the flush
// callback therefore applies the rule node.scored applies — an un-banned
// hit whose staging connection is gone is forgotten again. The identifier's
// next op belongs to a new connection, which the event loop services in a
// later iteration, i.e. after a flush.
func TestBatchEquivalence(t *testing.T) {
	ops := opSequence()
	lastOfConn := func(i int) bool { return i%37 == 0 }

	directTr, directLedger := newEquivTracker()
	var directResults []Result
	for i, op := range ops {
		directResults = append(directResults, directTr.MisbehavingCtx(op.ID, op.Inbound, op.Rule, op.Ctx))
		if lastOfConn(i) {
			directTr.Forget(op.ID)
		}
	}

	batchTr, batchLedger := newEquivTracker()
	b := batchTr.NewBatch()
	var batchResults []Result
	gone := map[PeerID]bool{} // identifiers whose staging connection has disconnected
	flush := func() {
		b.Flush(func(op BatchOp, res Result) {
			batchResults = append(batchResults, res)
			if gone[op.ID] && res.Applied && !res.Banned {
				batchTr.Forget(op.ID)
			}
		})
		clear(gone)
	}
	flushAt := []int{1, 3, 50, 64, 107, 333} // uneven chunking, incl. mid-peer
	next := 0
	for i, op := range ops {
		if gone[op.ID] {
			flush()
		}
		b.Add(op.ID, op.Inbound, op.Rule, op.Ctx)
		if lastOfConn(i) {
			batchTr.Forget(op.ID)
			gone[op.ID] = true
		}
		if next < len(flushAt) && i == flushAt[next] {
			flush()
			next++
		}
	}
	flush()

	if len(batchResults) != len(directResults) {
		t.Fatalf("result count: batch %d, direct %d", len(batchResults), len(directResults))
	}
	for i := range directResults {
		if batchResults[i] != directResults[i] {
			t.Fatalf("op %d result diverged: batch %+v, direct %+v", i, batchResults[i], directResults[i])
		}
	}

	direct := canonicalExport(t, directTr, directLedger)
	batched := canonicalExport(t, batchTr, batchLedger)
	if !bytes.Equal(direct, batched) {
		t.Fatalf("exports diverged\ndirect:  %s\nbatched: %s", direct, batched)
	}
}

// TestBatchMidBatchBan pins the mid-batch ban semantics: a peer crossing
// the threshold inside one flush has its score reset, and later staged
// hits in the same flush accumulate from zero — never lost, never
// double-applied.
func TestBatchMidBatchBan(t *testing.T) {
	tr, _ := newEquivTracker()
	b := tr.NewBatch()
	id := PeerID("[10.9.9.9]:4444")
	// VersionDuplicate scores 1 in 0.20.0; 100 hits ban. Stage 103.
	for i := 0; i < 103; i++ {
		b.Add(id, true, VersionDuplicate, MisbehaviorContext{Command: "version"})
	}
	var results []Result
	b.Flush(func(_ BatchOp, res Result) { results = append(results, res) })

	bannedAt := -1
	for i, res := range results {
		if res.Banned {
			bannedAt = i
			break
		}
	}
	if bannedAt != 99 {
		t.Fatalf("ban landed at staged op %d, want 99", bannedAt)
	}
	if !tr.IsBanned(id) {
		t.Fatal("peer not on ban list after mid-batch threshold crossing")
	}
	// The 3 post-ban hits restart from zero: staged deltas after the ban
	// are applied, not dropped.
	if got := tr.Score(id); got != 3 {
		t.Fatalf("post-ban score %d, want 3", got)
	}
	if results[100].Score != 1 || results[102].Score != 3 {
		t.Fatalf("post-ban results %+v, %+v; want totals 1 and 3", results[100], results[102])
	}
}

// TestBatchEmptyAndGatedOps checks the degenerate paths: flushing an empty
// batch is a no-op, and gated ops (disabled mode) report zero Results
// without touching state.
func TestBatchEmptyAndGatedOps(t *testing.T) {
	tr, _ := newEquivTracker()
	b := tr.NewBatch()
	b.Flush(func(BatchOp, Result) { t.Fatal("callback on empty flush") })

	off := NewTracker(Config{Version: V0_20_0, Mode: ModeDisabled, Clock: fixedClock()})
	ob := off.NewBatch()
	ob.Add("[10.0.0.2]:1", true, VersionDuplicate, MisbehaviorContext{})
	calls := 0
	ob.Flush(func(_ BatchOp, res Result) {
		calls++
		if res.Applied {
			t.Fatalf("disabled-mode op applied: %+v", res)
		}
	})
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
	if off.TrackedPeers() != 0 {
		t.Fatal("disabled tracker holds state after gated flush")
	}
}
