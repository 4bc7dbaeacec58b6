package banstore

import (
	"os"
	"sync"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/reputation"
	"banscore/internal/wal"
)

func openTest(t *testing.T, dir string, opts Options) (*Store, *Recovered) {
	t.Helper()
	opts.Dir = dir
	s, rec, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, rec
}

// decodedRecords decodes every view Open retained, in log order.
func decodedRecords(t *testing.T, rec *Recovered) []Record {
	t.Helper()
	out := make([]Record, len(rec.Records))
	for i, payload := range rec.Records {
		r, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("retained record %d does not decode: %v", i, err)
		}
		out[i] = r
	}
	return out
}

func appendAllKinds(s *Store) int {
	at := time.Unix(1700000000, 0)
	s.AppendMisbehavior(core.BanRecord{
		Seq: 1, At: at, Peer: "p1", RuleID: core.AddrOversize, Rule: "AddrOversize",
		Delta: 20, Score: 20, Command: "addr", TraceID: 7, PayloadDigest: 0xdeadbeef, PayloadLen: 9001,
	})
	s.AppendBan("p2", at.Add(24*time.Hour))
	s.AppendForget("p3")
	s.AppendGood("p4", 3)
	s.RecordPenalty(reputation.PenaltyRecord{
		ID: "p5", Seq: 2, At: at, Mis: 40.5, Contributed: 40.5,
		Group: "v4:203.0.113.0", Pressure: 81, BannedUntil: at.Add(time.Hour), Identities: 2, Bans: 1,
	})
	s.RecordCredit(reputation.CreditRecord{ID: "p6", Seq: 4, Trust: 15})
	return 6
}

func TestWALAppendSyncReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openTest(t, dir, Options{})
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
	}

	n := appendAllKinds(s)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := s.LSN(); got != uint64(n) {
		t.Fatalf("LSN after %d appends: %d", n, got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2 := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if rec2.Truncations != 0 {
		t.Fatalf("clean log reported %d truncations", rec2.Truncations)
	}
	if len(rec2.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), n)
	}
	if rec2.LastLSN != uint64(n) {
		t.Fatalf("LastLSN %d, want %d", rec2.LastLSN, n)
	}

	// Every field of every kind must round-trip exactly.
	records := decodedRecords(t, rec2)
	r := records[0]
	if r.Kind != recMisbehave || r.Misbehavior.Peer != "p1" || r.Misbehavior.Score != 20 ||
		r.Misbehavior.PayloadDigest != 0xdeadbeef || r.Misbehavior.TraceID != 7 ||
		!r.Misbehavior.At.Equal(time.Unix(1700000000, 0)) {
		t.Fatalf("misbehavior record mangled: %+v", r.Misbehavior)
	}
	if r = records[1]; r.Kind != recBan || r.Peer != "p2" || !r.Until.Equal(time.Unix(1700000000, 0).Add(24*time.Hour)) {
		t.Fatalf("ban record mangled: %+v", r)
	}
	if r = records[2]; r.Kind != recForget || r.Peer != "p3" {
		t.Fatalf("forget record mangled: %+v", r)
	}
	if r = records[3]; r.Kind != recGood || r.Peer != "p4" || r.Total != 3 {
		t.Fatalf("good record mangled: %+v", r)
	}
	if r = records[4]; r.Kind != recPenalty || r.Penalty.Group != "v4:203.0.113.0" ||
		r.Penalty.Pressure != 81 || r.Penalty.Bans != 1 {
		t.Fatalf("penalty record mangled: %+v", r.Penalty)
	}
	if r = records[5]; r.Kind != recCredit || r.Credit.ID != "p6" || r.Credit.Trust != 15 {
		t.Fatalf("credit record mangled: %+v", r)
	}

	// New appends continue the LSN sequence past the recovered frontier.
	s2.AppendForget("p9")
	if got := s2.LSN(); got != uint64(n+1) {
		t.Fatalf("post-recovery LSN %d, want %d", got, n+1)
	}
}

func TestCrashLosesAtMostOneWindow(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})

	for i := 0; i < 50; i++ {
		s.AppendGood("durable", i)
	}
	if err := s.Sync(); err != nil { // durability checkpoint
		t.Fatalf("Sync: %v", err)
	}
	// These may or may not survive — they are the group-commit window.
	for i := 0; i < 10; i++ {
		s.AppendGood("window", i)
	}
	s.Crash()

	s2, rec := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if len(rec.Records) < 50 {
		t.Fatalf("crash lost synced records: recovered %d, want >= 50", len(rec.Records))
	}
	for i, r := range decodedRecords(t, rec)[:50] {
		if r.Peer != "durable" || r.Total != i {
			t.Fatalf("synced record %d corrupted: %+v", i, r)
		}
	}
}

func TestBacklogShedsInsteadOfBlocking(t *testing.T) {
	// A store whose writer never runs: appends beyond the cap must be
	// dropped and counted, never block the caller.
	s := &Store{opts: Options{MaxBacklogBytes: 64}}
	s.cond = sync.NewCond(&s.mu)
	s.nextLSN = 1
	f, err := os.CreateTemp(t.TempDir(), "seg")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	s.f = f

	for i := 0; i < 100; i++ {
		s.AppendForget("peer-with-a-reasonably-long-identifier")
	}
	if s.dropped.Load() == 0 {
		t.Fatal("no appends shed at backlog cap")
	}
	if len(s.pending) > 64+128 { // cap plus at most one record of overshoot
		t.Fatalf("pending grew past cap: %d bytes", len(s.pending))
	}
	if s.Healthy() {
		t.Fatal("store over backlog budget must report unhealthy")
	}
}

func TestSnapshotRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})
	defer func() { _ = s.Close() }()

	tracker := core.NewTracker(core.Config{})
	tracker.MisbehavingCtx("p", true, core.AddrOversize, core.MisbehaviorContext{})

	for i := 0; i < 5; i++ {
		s.AppendGood("p", i)
	}
	lsn := s.LSN()
	if err := s.Snapshot(CaptureState(tracker, nil, nil), lsn); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for i := 5; i < 10; i++ {
		s.AppendGood("p", i)
	}
	lsn = s.LSN()
	if err := s.Snapshot(CaptureState(tracker, nil, nil), lsn); err != nil {
		t.Fatalf("Snapshot 2: %v", err)
	}

	segs, snaps, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The second snapshot covers the first two segments; only later ones
	// survive. Both snapshot generations are retained (keep = 2).
	if len(snaps) != 2 {
		t.Fatalf("retained %d snapshots, want 2", len(snaps))
	}
	for _, seg := range segs[:len(segs)-1] {
		if seg.Start-1 < lsn && seg.Start == 1 {
			t.Fatalf("segment %s fully covered by snapshot lsn %d still on disk", seg.Path, lsn)
		}
	}

	// A third snapshot drops the first generation.
	if err := s.Snapshot(CaptureState(tracker, nil, nil), s.LSN()); err != nil {
		t.Fatalf("Snapshot 3: %v", err)
	}
	_, snaps, _ = wal.ScanDir(dir)
	if len(snaps) != 2 {
		t.Fatalf("retention kept %d snapshots, want 2", len(snaps))
	}
}

func TestSnapshotSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})

	tracker := core.NewTracker(core.Config{})
	tracker.MisbehavingCtx("scored", true, core.AddrOversize, core.MisbehaviorContext{})
	tracker.BanList().Ban("banned", time.Hour)
	if err := s.Snapshot(CaptureState(tracker, nil, nil), s.LSN()); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if rec.Snapshot == nil {
		t.Fatal("snapshot not recovered")
	}
	restored := core.NewTracker(core.Config{})
	Restore(rec, restored, nil, nil)
	if restored.Score("scored") != 20 {
		t.Fatalf("restored score %d, want 20", restored.Score("scored"))
	}
	if !restored.IsBanned("banned") {
		t.Fatal("restored ban missing")
	}
}

func TestStatusAndHealth(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})
	defer func() { _ = s.Close() }()

	appendAllKinds(s)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if st.Appends != 6 || st.LSN != 6 || st.WalBytes == 0 {
		t.Fatalf("status counters wrong: %+v", st)
	}
	if !st.Healthy {
		t.Fatalf("fresh store unhealthy: %+v", st)
	}

	// Blown fsync budget flips health.
	s.mu.Lock()
	s.lastFsyncDur = DefaultFsyncBudget + time.Second
	s.mu.Unlock()
	if s.Healthy() {
		t.Fatal("store over fsync budget must report unhealthy")
	}
}
