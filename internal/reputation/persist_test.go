package reputation

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"banscore/internal/core"
)

// captureRecorder collects the engine's event stream for replay tests.
type captureRecorder struct {
	mu        sync.Mutex
	penalties []PenaltyRecord
	credits   []CreditRecord
}

func (r *captureRecorder) RecordPenalty(rec PenaltyRecord) {
	r.mu.Lock()
	r.penalties = append(r.penalties, rec)
	r.mu.Unlock()
}

func (r *captureRecorder) RecordCredit(rec CreditRecord) {
	r.mu.Lock()
	r.credits = append(r.credits, rec)
	r.mu.Unlock()
}

func TestExportImportRoundTripAcrossShardCounts(t *testing.T) {
	clock := newVirtualClock()
	src := New(Config{Clock: clock, ShardCount: 8})

	ids := []core.PeerID{"203.0.113.7:8333", "203.0.113.9:8333", "198.51.100.1:8333"}
	for i, id := range ids {
		src.Credit(id, CreditBlock)
		src.Penalize(id, 20*(i+1))
		clock.Advance(time.Minute)
	}

	want := src.ExportState()
	if len(want.Peers) != 3 || len(want.Groups) != 2 {
		t.Fatalf("export shape: %d peers / %d groups, want 3/2", len(want.Peers), len(want.Groups))
	}

	// A snapshot taken at 8 shards must restore identically at any other
	// shard count — State is the canonical form.
	for _, shards := range []int{8, 64, 256} {
		dst := New(Config{Clock: clock, ShardCount: shards})
		dst.ImportState(want)
		got := dst.ExportState()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round-trip at %d shards diverged:\n got %+v\nwant %+v", shards, got, want)
		}
		// Live behavior must match too, not just the export image.
		for _, id := range ids {
			if dst.Score(id) != src.Score(id) {
				t.Fatalf("score for %s diverged after restore at %d shards", id, shards)
			}
		}
	}
}

func TestImportPreservesGroupPointerIdentity(t *testing.T) {
	clock := newVirtualClock()
	src := New(Config{Clock: clock, GroupBudget: 40})
	id := core.PeerID("203.0.113.7:8333")
	src.Penalize(id, 50) // over budget → group banned

	dst := New(Config{Clock: clock, GroupBudget: 40})
	dst.ImportState(src.ExportState())

	// The restored peer's cached group pointer must be the same record
	// Admission resolves, or the ban would be invisible to one path.
	if v := dst.Admission(id); v != VerdictReject {
		t.Fatalf("restored group ban not enforced: verdict %v", v)
	}
	if v := dst.Admission(core.PeerID("203.0.113.250:8333")); v != VerdictReject {
		t.Fatalf("restored group ban must cover the whole prefix: verdict %v", v)
	}
	_, _, groupBans, _ := dst.Totals()
	if groupBans != 1 {
		t.Fatalf("lifetime groupBans counter lost in restore: %d", groupBans)
	}
}

func TestDecayReplaysDeterministically(t *testing.T) {
	// The core durability property: snapshot + WAL replay on a virtual
	// clock reproduces the live engine exactly, including decay, because
	// records carry the vclock instant their values were computed at.
	clock := newVirtualClock()
	rec := &captureRecorder{}
	live := New(Config{Clock: clock, ShardCount: 16, Recorder: rec})

	id := core.PeerID("203.0.113.7:8333")
	other := core.PeerID("198.51.100.1:8333")
	live.Penalize(id, 40)
	clock.Advance(7 * time.Minute)
	live.Credit(id, CreditTx)
	live.Penalize(other, 25)
	clock.Advance(3 * time.Minute)
	live.Penalize(id, 10)

	// Restore from an empty snapshot + the full record stream.
	restored := New(Config{Clock: clock, ShardCount: 64})
	for _, p := range rec.penalties {
		restored.RestorePenalty(p)
	}
	for _, c := range rec.credits {
		restored.RestoreCredit(c)
	}

	if got, want := restored.ExportState(), live.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state diverged from live:\n got %+v\nwant %+v", got, want)
	}

	// Decay must continue on the same trajectory after restore.
	clock.Advance(20 * time.Minute)
	if got, want := restored.Score(id), live.Score(id); got != want {
		t.Fatalf("post-restore decay diverged: got %+v want %+v", got, want)
	}
}

func TestRestoreIsIdempotentOverSnapshot(t *testing.T) {
	// Replaying the WHOLE WAL on top of a snapshot that already captured a
	// prefix of it must not double-apply: the Seq guard skips the peer
	// half, the At guard skips stale group halves.
	clock := newVirtualClock()
	rec := &captureRecorder{}
	live := New(Config{Clock: clock, Recorder: rec})

	id := core.PeerID("203.0.113.7:8333")
	live.Penalize(id, 30)
	live.Credit(id, CreditBlock)
	snap := live.ExportState() // snapshot taken mid-stream
	clock.Advance(time.Minute)
	live.Penalize(id, 30)
	live.Credit(id, CreditBlock)

	restored := New(Config{Clock: clock})
	restored.ImportState(snap)
	for _, p := range rec.penalties { // full log, including pre-snapshot records
		restored.RestorePenalty(p)
	}
	for _, c := range rec.credits {
		restored.RestoreCredit(c)
	}

	if got, want := restored.ExportState(), live.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("overlap replay diverged:\n got %+v\nwant %+v", got, want)
	}

	// Replaying the log a second time must change nothing.
	before := restored.ExportState()
	for _, p := range rec.penalties {
		restored.RestorePenalty(p)
	}
	for _, c := range rec.credits {
		restored.RestoreCredit(c)
	}
	if got := restored.ExportState(); !reflect.DeepEqual(got, before) {
		t.Fatal("second replay mutated state (not idempotent)")
	}
}

func TestRecorderObservesGroupBan(t *testing.T) {
	clock := newVirtualClock()
	rec := &captureRecorder{}
	live := New(Config{Clock: clock, GroupBudget: 40, Recorder: rec})
	live.Penalize(core.PeerID("203.0.113.7:8333"), 50)

	if len(rec.penalties) != 1 {
		t.Fatalf("recorded %d penalties, want 1", len(rec.penalties))
	}
	r := rec.penalties[0]
	if r.Bans != 1 || !r.BannedUntil.After(clock.Now()) {
		t.Fatalf("group ban not captured in record: %+v", r)
	}

	// Replay alone must resurrect the collective ban and the counter.
	restored := New(Config{Clock: clock, GroupBudget: 40})
	restored.RestorePenalty(r)
	if v := restored.Admission(core.PeerID("203.0.113.99:8333")); v != VerdictReject {
		t.Fatalf("replayed group ban not enforced: verdict %v", v)
	}
	_, _, groupBans, _ := restored.Totals()
	if groupBans != 1 {
		t.Fatalf("replay did not advance groupBans counter: %d", groupBans)
	}
}
