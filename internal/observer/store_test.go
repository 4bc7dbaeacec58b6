package observer

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testEvent(node string, seq uint64, kind, peer string) Event {
	return Event{
		Node:   node,
		Stream: StreamJournal,
		Seq:    seq,
		At:     time.Unix(1700000000+int64(seq), 0),
		Kind:   kind,
		Peer:   peer,
		Value:  float64(seq),
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := OpenStore(Options{Dir: dir})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	return s
}

// TestStoreIngestDedup: the (node, stream, seq) key is the identity — the
// same event ingested twice is stored once.
func TestStoreIngestDedup(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()

	ev := testEvent("n1", 1, "ban", "10.0.0.1:8333")
	if !s.Ingest(ev) {
		t.Fatal("first ingest rejected")
	}
	if s.Ingest(ev) {
		t.Fatal("duplicate ingest accepted")
	}
	if got := s.Status().Events; got != 1 {
		t.Fatalf("Events = %d, want 1", got)
	}
	// Same seq on another node or stream is a different event.
	if !s.Ingest(testEvent("n2", 1, "ban", "10.0.0.1:8333")) {
		t.Fatal("same seq on another node rejected")
	}
	ev2 := ev
	ev2.Stream = StreamEvidence
	if !s.Ingest(ev2) {
		t.Fatal("same seq on another stream rejected")
	}
}

// TestStoreAutoSeq: zero-Seq events get consecutive per-(node, stream)
// sequence numbers.
func TestStoreAutoSeq(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()

	for i := 0; i < 3; i++ {
		if !s.Ingest(Event{Node: "n1", Stream: StreamHealth, Kind: KindHealth, Detail: "degraded"}) {
			t.Fatalf("auto-seq ingest %d rejected", i)
		}
	}
	if got := s.LastSeq("n1", StreamHealth); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
	// The auto counter continues after an explicit high seq.
	s.Ingest(Event{Node: "n1", Stream: StreamHealth, Seq: 10, Kind: KindHealth})
	s.Ingest(Event{Node: "n1", Stream: StreamHealth, Kind: KindHealth})
	if got := s.LastSeq("n1", StreamHealth); got != 11 {
		t.Fatalf("LastSeq after explicit = %d, want 11", got)
	}
}

// TestStoreIngestAllocatesNothing: a fleet under a flood lands one event
// per poll per node, so Ingest's steady state — a journal event with its
// own sequence, a synthesized one numbered by the store, a duplicate —
// must only append into tables and buffers it already has.
func TestStoreIngestAllocatesNothing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	peers := make([]string, 64)
	for i := range peers {
		peers[i] = fmt.Sprintf("10.0.0.%d:8333", i)
	}
	var seq uint64
	ingest := func() {
		seq++
		ev := testEvent("n1", seq, "score", peers[seq%64])
		if !s.Ingest(ev) || s.Ingest(ev) {
			t.Fatal("journal event not stored exactly once")
		}
		if !s.Ingest(Event{Node: "n1", Stream: StreamHealth, Kind: KindHealth, Detail: "degraded"}) {
			t.Fatal("synthesized event rejected")
		}
	}
	if allocs := testing.AllocsPerRun(1000, ingest); allocs != 0 {
		t.Errorf("Ingest allocates %v times per round, want 0", allocs)
	}
}

// TestStoreRecoveryRoundTrip: events and cursors survive Close + reopen via
// WAL replay, and again after a snapshot.
func TestStoreRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := uint64(1); i <= 50; i++ {
		s.Ingest(testEvent("n1", i, "score", "10.0.0.1:8333"))
	}
	s.Ingest(testEvent("n2", 1, "ban", "10.0.0.2:8333"))
	if err := s.AckCursor("n1", Cursor{Next: 50, Dropped: 3}); err != nil {
		t.Fatalf("AckCursor: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir)
	if got := s2.Status().Events; got != 51 {
		t.Fatalf("recovered Events = %d, want 51", got)
	}
	cur, ok := s2.Cursor("n1")
	if !ok || cur.Next != 50 || cur.Dropped != 3 {
		t.Fatalf("recovered cursor = %+v ok=%v, want {50 3}", cur, ok)
	}
	if got := len(s2.PeerEvents("10.0.0.1:8333")); got != 50 {
		t.Fatalf("recovered peer events = %d, want 50", got)
	}

	// Snapshot, append more, reopen: snapshot + tail replay.
	if err := s2.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s2.Ingest(testEvent("n2", 2, "ban", "10.0.0.2:8333"))
	s2.Close()

	s3 := mustOpen(t, dir)
	defer s3.Close()
	if got := s3.Status().Events; got != 52 {
		t.Fatalf("post-snapshot Events = %d, want 52", got)
	}
	if s3.Status().SnapshotLSN == 0 {
		t.Fatal("snapshot LSN not recovered")
	}
}

// TestStoreRecoveryTruncatesCorruptTail: a torn byte mid-log costs the tail
// after it, never the prefix, and never fails Open.
func TestStoreRecoveryTruncatesCorruptTail(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	for i := uint64(1); i <= 20; i++ {
		s.Ingest(testEvent("n1", i, "score", "10.0.0.1:8333"))
	}
	s.Close()

	// Flip a byte two-thirds into the segment body.
	segs, err := listDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	path := segs[0]
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := len(b) * 2 / 3
	b[off] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir)
	defer s2.Close()
	st := s2.Status()
	if st.Truncations == 0 {
		t.Fatal("corruption not counted")
	}
	if st.Events == 0 || st.Events >= 20 {
		t.Fatalf("recovered Events = %d, want a proper non-empty prefix of 20", st.Events)
	}
	// The surviving prefix is exactly events 1..st.Events, no holes.
	for i := uint64(1); i <= uint64(st.Events); i++ {
		if !s2.HasEvent(Key{Node: "n1", Stream: StreamJournal, Seq: i}) {
			t.Fatalf("hole at seq %d after truncation", i)
		}
	}
}

// TestStoreCursorGenerations: a bigger Base replaces the cursor position
// wholesale; within a generation the cursor is forward-only.
func TestStoreCursorGenerations(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()

	s.AckCursor("n1", Cursor{Next: 40, Dropped: 2})
	s.AckCursor("n1", Cursor{Next: 10}) // regress within generation: ignored
	cur, _ := s.Cursor("n1")
	if cur.Next != 40 || cur.Dropped != 2 {
		t.Fatalf("cursor after regress = %+v, want {40 2 0}", cur)
	}
	// New generation: Next restarts at 0 legitimately, Dropped carries over.
	s.AckCursor("n1", Cursor{Next: 0, Base: 40, Dropped: 2})
	cur, _ = s.Cursor("n1")
	if cur.Base != 40 || cur.Next != 0 {
		t.Fatalf("cursor after generation bump = %+v, want base 40 next 0", cur)
	}
	// Older generation acks are ignored.
	s.AckCursor("n1", Cursor{Next: 99, Base: 0})
	cur, _ = s.Cursor("n1")
	if cur.Base != 40 || cur.Next != 0 {
		t.Fatalf("stale generation accepted: %+v", cur)
	}
}

// TestStoreSnapshotPrunes: generations beyond snapshotKeep and covered WAL
// segments are deleted.
func TestStoreSnapshotPrunes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for round := 0; round < 4; round++ {
		for i := 0; i < 10; i++ {
			s.Ingest(Event{Node: "n1", Stream: StreamHealth, Kind: KindHealth, Detail: "x"})
		}
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot round %d: %v", round, err)
		}
	}
	segs, snaps, err := listDirSplit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) > 2 {
		t.Fatalf("retained %d snapshots, want <= 2", len(snaps))
	}
	if len(segs) > 3 {
		t.Fatalf("retained %d segments, want <= 3", len(segs))
	}
}

// TestStoreQueryViews: Bans, Propagation, and Nodes aggregate across nodes.
func TestStoreQueryViews(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()

	base := time.Unix(1700000000, 0)
	attacker := "10.9.9.9:4444"
	s.Ingest(Event{Node: "n1", Stream: StreamJournal, Seq: 5, At: base, Kind: "ban", Peer: attacker, Value: 100})
	s.Ingest(Event{Node: "n2", Stream: StreamJournal, Seq: 9, At: base.Add(3 * time.Second), Kind: "ban", Peer: attacker, Value: 100})
	s.Ingest(Event{Node: "n3", Stream: StreamJournal, Seq: 2, At: base.Add(500 * time.Millisecond), Kind: "ban", Peer: attacker, Value: 100})
	s.Ingest(Event{Node: "n1", Stream: StreamEvidence, Seq: 5, Kind: KindBanEvidence, Peer: attacker, Detail: "duplicate-version x1 (+100) -> score 100"})
	// An unrelated scoring event must not show up as a ban.
	s.Ingest(Event{Node: "n1", Stream: StreamJournal, Seq: 6, At: base, Kind: "score", Peer: "10.0.0.1:8333", Value: 10})

	bans := s.Bans()
	if len(bans) != 1 || bans[0].Peer != attacker {
		t.Fatalf("Bans = %+v, want one entry for %s", bans, attacker)
	}
	if len(bans[0].Sightings) != 3 {
		t.Fatalf("sightings = %d, want 3", len(bans[0].Sightings))
	}
	if bans[0].Sightings[0].Node != "n1" || bans[0].Sightings[2].Node != "n2" {
		t.Fatalf("sightings not time-ordered: %+v", bans[0].Sightings)
	}
	if bans[0].Sightings[0].Evidence == "" {
		t.Fatal("evidence not joined onto the n1 sighting")
	}

	prop := s.Propagation()
	if len(prop) != 1 {
		t.Fatalf("Propagation = %+v, want 1 row", prop)
	}
	p := prop[0]
	if p.NodesBanned != 3 || p.FirstNode != "n1" || p.LastNode != "n2" {
		t.Fatalf("propagation row = %+v", p)
	}
	if p.Spread < 2.9 || p.Spread > 3.1 {
		t.Fatalf("spread = %v, want ~3s", p.Spread)
	}

	nodes := s.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("Nodes = %d rows, want 3", len(nodes))
	}
	if nodes[0].Node != "n1" || nodes[0].Bans != 1 {
		t.Fatalf("n1 summary = %+v", nodes[0])
	}
}

// listDir returns the segment file paths in dir.
func listDir(dir string) ([]string, error) {
	segs, _, err := listDirSplit(dir)
	return segs, err
}

func listDirSplit(dir string) (segs, snaps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".log":
			segs = append(segs, filepath.Join(dir, e.Name()))
		case ".snap":
			snaps = append(snaps, filepath.Join(dir, e.Name()))
		}
	}
	return segs, snaps, nil
}
