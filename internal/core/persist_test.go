package core

import (
	"reflect"
	"testing"
	"time"
)

func TestTrackerExportImportScores(t *testing.T) {
	src := NewTracker(Config{})
	misbehave(src, "a", true, BlockMutated) // 100 → banned, score reset
	misbehave(src, "b", true, AddrOversize) // below threshold
	misbehave(src, "c", true, AddrOversize)
	src.AddGood("b")
	src.AddGood("b")
	src.AddGood("d")

	scores, good := src.ExportScores()
	if scores["a"] != 0 {
		t.Fatalf("banned peer a should have no live score in export, got %d", scores["a"])
	}
	if scores["b"] == 0 || scores["c"] == 0 {
		t.Fatalf("expected live scores for b and c, got %v", scores)
	}
	if good["b"] != 2 || good["d"] != 1 {
		t.Fatalf("good scores wrong: %v", good)
	}

	dst := NewTracker(Config{})
	dst.ImportScores(scores, good)
	for _, id := range []PeerID{"b", "c"} {
		if dst.Score(id) != src.Score(id) {
			t.Fatalf("score for %s: restored %d, want %d", id, dst.Score(id), src.Score(id))
		}
	}
	if dst.GoodScore("b") != 2 || dst.GoodScore("d") != 1 {
		t.Fatalf("good scores did not survive import")
	}
	if dst.TrackedPeers() != src.TrackedPeers() {
		t.Fatalf("tracked peers: restored %d, want %d", dst.TrackedPeers(), src.TrackedPeers())
	}
}

func TestBanListExportImport(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clk := func() time.Time { return now }
	src := NewBanList(clk)
	src.Ban("banned", time.Hour)
	src.Ban("expired", time.Minute)

	exp := src.Export()
	if len(exp) != 2 {
		t.Fatalf("export should include all entries (even lapsed), got %d", len(exp))
	}

	// Restore on a clock that has moved past the short ban.
	later := now.Add(30 * time.Minute)
	dst := NewBanList(func() time.Time { return later })
	dst.Import(exp)
	if !dst.IsBanned("banned") {
		t.Fatal("unexpired ban must survive restore")
	}
	if dst.IsBanned("expired") {
		t.Fatal("ban that lapsed while down must not resurrect")
	}
}

func TestLedgerExportImportKeepsCounters(t *testing.T) {
	// Regression: eviction/trim counters and per-chain Seq must survive
	// export/import so restored forensics chains keep monotonic Seq.
	l := NewLedger(2, 3)
	for i := 0; i < 5; i++ {
		l.Append(BanRecord{Peer: "a", Delta: i}) // trims 2 once ring is full
	}
	l.Append(BanRecord{Peer: "b"})
	l.Append(BanRecord{Peer: "c"}) // evicts a (oldest first-appearance)

	st := l.ExportState()
	if st.Total != 7 || st.Evicted != 1 || st.Trimmed != 2 {
		t.Fatalf("export counters total=%d evicted=%d trimmed=%d, want 7/1/2",
			st.Total, st.Evicted, st.Trimmed)
	}

	restored := NewLedger(2, 3)
	restored.ImportState(st)
	if restored.Total() != 7 {
		t.Fatalf("restored total %d, want 7", restored.Total())
	}

	// Appends after restore must continue the per-peer Seq monotonically,
	// not restart from len(records).
	seq := restored.Append(BanRecord{Peer: "b"})
	if seq != 2 {
		t.Fatalf("post-restore append for b stamped seq %d, want 2", seq)
	}

	// The restored index must report the preserved lifetime counters.
	st2 := restored.ExportState()
	if st2.Evicted != 1 || st2.Trimmed != 2 {
		t.Fatalf("re-export counters evicted=%d trimmed=%d, want 1/2", st2.Evicted, st2.Trimmed)
	}
}

func TestLedgerExportImportRoundTrip(t *testing.T) {
	l := NewLedger(0, 0)
	l.Append(BanRecord{Peer: "x", Rule: "r1", Delta: 10, Score: 10})
	l.Append(BanRecord{Peer: "x", Rule: "r2", Delta: 20, Score: 30})
	l.Append(BanRecord{Peer: "y", Rule: "r1", Delta: 100, Score: 100, Banned: true})

	restored := NewLedger(0, 0)
	restored.ImportState(l.ExportState())

	if !reflect.DeepEqual(restored.Records("x"), l.Records("x")) {
		t.Fatalf("chain x did not round-trip:\n got %+v\nwant %+v", restored.Records("x"), l.Records("x"))
	}
	if !reflect.DeepEqual(restored.Records("y"), l.Records("y")) {
		t.Fatal("chain y did not round-trip")
	}
	if !reflect.DeepEqual(restored.Peers(), l.Peers()) {
		t.Fatalf("peer order did not round-trip: got %v want %v", restored.Peers(), l.Peers())
	}
}

func TestLedgerImportTruncatesToOwnCap(t *testing.T) {
	src := NewLedger(4, 8)
	for i := 1; i <= 8; i++ {
		src.Append(BanRecord{Peer: "p", Delta: i})
	}
	dst := NewLedger(4, 3) // smaller per-peer cap than the exporter
	dst.ImportState(src.ExportState())
	recs := dst.Records("p")
	if len(recs) != 3 {
		t.Fatalf("restored chain length %d, want cap 3", len(recs))
	}
	// Newest records must be the ones kept.
	if recs[len(recs)-1].Delta != 8 || recs[0].Delta != 6 {
		t.Fatalf("truncation kept wrong window: %+v", recs)
	}
	if recs[len(recs)-1].Seq != 8 {
		t.Fatalf("newest record Seq %d, want 8", recs[len(recs)-1].Seq)
	}
}

func TestLedgerRestoreDedupesBySeq(t *testing.T) {
	// Simulate snapshot + WAL-tail replay: the snapshot already contains
	// records 1..2 for peer p; replaying the full WAL (records 1..4) must
	// apply only 3 and 4.
	l := NewLedger(0, 0)
	l.ImportState(LedgerState{
		Chains: []LedgerChain{{
			Peer: "p",
			Seq:  2,
			Records: []BanRecord{
				{Seq: 1, Peer: "p", Delta: 1, Score: 1},
				{Seq: 2, Peer: "p", Delta: 1, Score: 2},
			},
		}},
		Total: 2,
	})

	for _, rec := range []BanRecord{
		{Seq: 1, Peer: "p", Delta: 1, Score: 1},
		{Seq: 2, Peer: "p", Delta: 1, Score: 2},
		{Seq: 3, Peer: "p", Delta: 1, Score: 3},
		{Seq: 4, Peer: "p", Delta: 1, Score: 4},
	} {
		l.Restore(rec)
	}

	recs := l.Records("p")
	if len(recs) != 4 {
		t.Fatalf("replay produced %d records, want 4 (dedup failed)", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has Seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if l.Total() != 4 {
		t.Fatalf("total %d, want 4", l.Total())
	}

	// A record stamped 0 came from a ledger-less tracker: treated as a
	// fresh append.
	l.Restore(BanRecord{Peer: "q", Delta: 5})
	if got := l.Records("q"); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("unstamped restore mishandled: %+v", got)
	}
}

func TestTrackerOnRecordHook(t *testing.T) {
	var got []BanRecord
	led := NewLedger(0, 0)
	tr := NewTracker(Config{
		Forensics: led,
		OnRecord:  func(rec BanRecord) { got = append(got, rec) },
	})
	misbehave(tr, "p", true, AddrOversize)
	misbehave(tr, "p", true, AddrOversize)
	if len(got) != 2 {
		t.Fatalf("OnRecord fired %d times, want 2", len(got))
	}
	if got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("OnRecord records not Seq-stamped: %d, %d", got[0].Seq, got[1].Seq)
	}
	if got[1].Score <= got[0].Score {
		t.Fatalf("records out of order: scores %d then %d", got[0].Score, got[1].Score)
	}

	// Without a ledger the hook still fires, with the 0 sentinel.
	got = nil
	tr2 := NewTracker(Config{OnRecord: func(rec BanRecord) { got = append(got, rec) }})
	misbehave(tr2, "p", true, AddrOversize)
	if len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("ledger-less OnRecord wrong: %+v", got)
	}
}

func TestLedgerImportHonoursOwnPeerCap(t *testing.T) {
	// Regression: ImportState trimmed over-long chains but installed every
	// chain of the snapshot, leaving a smaller ledger over its peer cap for
	// good — eviction removes one peer per new peer and never catches up.
	src := NewLedger(8, 4)
	for _, p := range []PeerID{"a", "b", "c", "d", "e", "f", "g", "h"} {
		src.Append(BanRecord{Peer: p})
	}
	dst := NewLedger(2, 4)
	dst.ImportState(src.ExportState())
	if got := dst.Peers(); !reflect.DeepEqual(got, []PeerID{"g", "h"}) {
		t.Fatalf("imported peers %v, want the newest two in first-appearance order [g h]", got)
	}
	if dst.Records("a") != nil || len(dst.Records("h")) != 1 {
		t.Fatal("import kept a chain outside the peer cap, or lost one inside it")
	}
	if st := dst.ExportState(); st.Evicted != 6 || st.Total != 8 {
		t.Fatalf("evicted=%d total=%d after import, want 6 peers evicted of 8 records", st.Evicted, st.Total)
	}

	dst.Append(BanRecord{Peer: "i"})
	if got := dst.Peers(); !reflect.DeepEqual(got, []PeerID{"h", "i"}) {
		t.Fatalf("peers %v after one more append, want [h i]", got)
	}
	if st := dst.ExportState(); st.Evicted != 7 {
		t.Fatalf("evicted=%d after one more append, want 7", st.Evicted)
	}
}
