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

// connEnd says whether, and how, an op's connection ends right after it.
type connEnd int

const (
	connStays connEnd = iota
	// connEOF: the peer closes. The event loop applies the hits the visit
	// staged and only then tears the connection down, so the tracker's
	// Forget follows a flush.
	connEOF
	// connReadError: the peer's read fails inside the visit and it tears
	// itself down there, before the visit's flush: the Forget overtakes the
	// hits still staged.
	connReadError
)

type seqOp struct {
	BatchOp
	end connEnd
}

// opSequence builds a churn-heavy mixed op stream: 91 peers spread over
// every shard and interleaved with each other, repeat offenders crossing the
// ban threshold mid-stream and re-offending after, a role-restricted rule
// against both roles, a rule that is outbound-only (which must gate
// identically), and connections ending both ways between an identifier's
// ops. A read error is only placed on an identifier's first op: once part
// of a connection's score has been flushed, the inline path scores the
// visit's remaining hits on top of it while the batched path scores them
// after the teardown forgot it, and the Results legitimately differ.
func opSequence() []seqOp {
	var ops []seqOp
	for i := 0; i < 400; i++ {
		id := PeerID(fmt.Sprintf("[10.1.%d.%d]:%d", i%7, i%13, 10000+i%7))
		first := seqOp{BatchOp: BatchOp{
			ID: id, Inbound: i%3 != 0, Rule: VersionDuplicate,
			Ctx: MisbehaviorContext{Command: "version", PayloadDigest: uint32(i), PayloadLen: 86},
		}}
		if i < 7*13 && i%11 == 0 {
			first.end = connReadError
		}
		ops = append(ops, first)
		if i%5 == 0 {
			ops = append(ops, seqOp{BatchOp: BatchOp{
				ID: id, Inbound: i%3 != 0, Rule: BlockMutated,
				Ctx: MisbehaviorContext{Command: "block", PayloadDigest: uint32(i * 31), PayloadLen: 1000},
			}})
		}
		if i%9 == 0 {
			// Role-restricted: outbound-only rule against an inbound peer
			// must be a no-op on both paths.
			ops = append(ops, seqOp{BatchOp: BatchOp{ID: id, Inbound: true, Rule: BlockCachedInvalid}})
		}
		if i%97 == 3 {
			ops[len(ops)-1].end = connEOF
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

// scoreExport is the part of canonicalExport the reference model has too:
// live scores and the set of banned identifiers, as canonical JSON.
func scoreExport(t *testing.T, scores map[PeerID]int, banned []PeerID) []byte {
	t.Helper()
	sort.Slice(banned, func(i, j int) bool { return banned[i] < banned[j] })
	out, err := json.Marshal(struct {
		Scores map[PeerID]int
		Banned []PeerID
	}{scores, banned})
	if err != nil {
		t.Fatalf("marshal score export: %v", err)
	}
	return out
}

func requireSameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: op %d result %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestBatchEquivalence drives the same op sequence through the reference
// model, through the direct MisbehavingCtx path and through Batch staging
// under several flush cadences — after every op, every 7, every 64 (the
// event loop's read budget), in uneven chunks, and with no cut other than
// the ones connection ends force — and requires op-for-op identical Results
// everywhere, byte-identical canonical exports between the direct and every
// batched run, and the model's scores and ban set in both: where the flush
// boundaries fall must not be observable.
//
// On the model and the direct path a connection's end is a Forget right
// after its last op, whichever way it ends. On the batched path an EOF is a
// flush and then the Forget; a read error is the Forget first, with the
// connection's hits still staged, so the flush would resurrect the score and
// the flush callback applies the rule node.scored applies — an un-banned hit
// whose staging connection is gone is forgotten again. The identifier's next
// op belongs to a new connection, which the event loop services in a later
// visit, i.e. after a flush.
func TestBatchEquivalence(t *testing.T) {
	ops := opSequence()

	model := newModelTracker(V0_20_0, DefaultBanThreshold)
	var modelResults []Result
	for _, op := range ops {
		modelResults = append(modelResults, model.misbehaving(op.ID, op.Inbound, op.Rule))
		if op.end != connStays {
			model.forget(op.ID)
		}
	}
	var modelBanned []PeerID
	for id := range model.banned {
		modelBanned = append(modelBanned, id)
	}
	modelExport := scoreExport(t, model.scores, modelBanned)
	requireModelState := func(t *testing.T, tr *Tracker) {
		t.Helper()
		scores, _ := tr.ExportScores()
		var banned []PeerID
		for id := range tr.BanList().Export() {
			banned = append(banned, id)
		}
		if got := scoreExport(t, scores, banned); !bytes.Equal(got, modelExport) {
			t.Fatalf("scores and bans diverged from the reference model\ngot:   %s\nmodel: %s", got, modelExport)
		}
	}

	directTr, directLedger := newEquivTracker()
	var directResults []Result
	for _, op := range ops {
		directResults = append(directResults, directTr.MisbehavingCtx(op.ID, op.Inbound, op.Rule, op.Ctx))
		if op.end != connStays {
			directTr.Forget(op.ID)
		}
	}
	requireSameResults(t, "direct path against the model", directResults, modelResults)
	requireModelState(t, directTr)
	direct := canonicalExport(t, directTr, directLedger)

	uneven := map[int]bool{1: true, 3: true, 50: true, 64: true, 107: true, 333: true} // incl. mid-peer
	for _, cadence := range []struct {
		name string
		cut  func(i int) bool // flush after staging op i
	}{
		{"every op", func(int) bool { return true }},
		{"every 7", func(i int) bool { return i%7 == 6 }},
		{"every 64", func(i int) bool { return i%64 == 63 }},
		{"uneven", func(i int) bool { return uneven[i] }},
		{"only where a connection end forces one", func(int) bool { return false }},
	} {
		t.Run(cadence.name, func(t *testing.T) {
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
			for i, op := range ops {
				if gone[op.ID] {
					flush()
				}
				b.Add(op.ID, op.Inbound, op.Rule, op.Ctx)
				switch op.end {
				case connEOF:
					flush()
					batchTr.Forget(op.ID)
				case connReadError:
					batchTr.Forget(op.ID)
					gone[op.ID] = true
				}
				if cadence.cut(i) {
					flush()
				}
			}
			flush()

			requireSameResults(t, "batched against direct", batchResults, directResults)
			requireModelState(t, batchTr)
			if batched := canonicalExport(t, batchTr, batchLedger); !bytes.Equal(direct, batched) {
				t.Fatalf("exports diverged\ndirect:  %s\nbatched: %s", direct, batched)
			}
		})
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
