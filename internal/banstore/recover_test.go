package banstore

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/reputation"
	"banscore/internal/vclock"
	"banscore/internal/wal"
)

// virtualClock drives deterministic decay in the property test.
type virtualClock struct {
	mu sync.Mutex
	at time.Time
}

func newVirtualClock() *virtualClock {
	return &virtualClock{at: time.Unix(1700000000, 0)}
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

func (c *virtualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c *virtualClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }
func (c *virtualClock) Sleep(d time.Duration)           { c.Advance(d) }
func (c *virtualClock) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return vclock.System().AfterFunc(0, f)
}

func (c *virtualClock) After(d time.Duration) <-chan time.Time {
	c.Advance(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, err := wal.ScanDir(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return segs[len(segs)-1].Path
}

func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})
	for i := 0; i < 20; i++ {
		s.AppendGood("p", i)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	s.Crash()

	// Simulate a record torn mid-write by the kill: append half a frame.
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x0c, 0x00, 0x00, 0x00, 0xaa}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	s2, rec := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if len(rec.Records) != 20 {
		t.Fatalf("recovered %d records, want the 20 intact ones", len(rec.Records))
	}
	if rec.Truncations == 0 {
		t.Fatal("torn tail not counted as a truncation")
	}
	// The torn bytes must be gone from disk so the next recovery is clean.
	s3, rec3 := func() (*Store, *Recovered) { _ = s2.Close(); return openTest(t, dir, Options{}) }()
	defer func() { _ = s3.Close() }()
	if rec3.Truncations != 0 {
		t.Fatalf("second recovery still sees corruption: %d events", rec3.Truncations)
	}
	if len(rec3.Records) != 20 {
		t.Fatalf("second recovery lost records: %d", len(rec3.Records))
	}
}

func TestRecoverBitFlipMidLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})
	for i := 0; i < 30; i++ {
		s.AppendGood("p", i)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	seg := lastSegment(t, dir)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the middle of the log body.
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(walMagic) + 8 + (len(b)-len(walMagic)-8)/2
	b[mid] ^= 0x40
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if rec.Truncations == 0 {
		t.Fatal("bit flip not detected")
	}
	if len(rec.Records) == 0 || len(rec.Records) >= 30 {
		t.Fatalf("expected a strict prefix of the 30 records, got %d", len(rec.Records))
	}
	// Prefix integrity: everything before the flip replays exactly.
	for i, r := range decodedRecords(t, rec) {
		if r.Kind != recGood || r.Total != i {
			t.Fatalf("prefix record %d corrupted: %+v", i, r)
		}
	}
}

func TestRecoverEmptyWALWithValidSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})
	tracker := core.NewTracker(core.Config{})
	tracker.MisbehavingCtx("p", true, core.AddrOversize, core.MisbehaviorContext{})
	for i := 0; i < 4; i++ {
		s.AppendGood("p", i)
	}
	lsn := s.LSN()
	if err := s.Snapshot(CaptureState(tracker, nil, nil), lsn); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Drop every WAL segment: only the snapshot remains.
	segs, _, _ := wal.ScanDir(dir)
	for _, seg := range segs {
		if err := os.Remove(seg.Path); err != nil {
			t.Fatal(err)
		}
	}

	s2, rec := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if rec.Snapshot == nil || len(rec.Records) != 0 {
		t.Fatalf("want snapshot only, got snap=%v records=%d", rec.Snapshot != nil, len(rec.Records))
	}
	if rec.LastLSN != lsn {
		t.Fatalf("LastLSN %d, want snapshot lsn %d", rec.LastLSN, lsn)
	}
	restored := core.NewTracker(core.Config{})
	Restore(rec, restored, nil, nil)
	if restored.Score("p") != 20 {
		t.Fatalf("restored score %d, want 20", restored.Score("p"))
	}
	// Appends must resume past the snapshot LSN, not reuse burned numbers.
	s2.AppendForget("x")
	if got := s2.LSN(); got != lsn+1 {
		t.Fatalf("post-recovery LSN %d, want %d", got, lsn+1)
	}
}

func TestRecoverSnapshotNewerThanWAL(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})
	tracker := core.NewTracker(core.Config{})
	for i := 0; i < 6; i++ {
		s.AppendGood("old", i)
	}
	// Write a snapshot claiming to cover far beyond anything in the log —
	// the shape left behind when segments after a snapshot were lost.
	if err := s.Snapshot(CaptureState(tracker, nil, nil), 1000); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if rec.LastLSN != 1000 {
		t.Fatalf("LastLSN %d, want snapshot lsn 1000", rec.LastLSN)
	}
	s2.AppendForget("x")
	if got := s2.LSN(); got != 1001 {
		t.Fatalf("appends must continue past the snapshot frontier: LSN %d", got)
	}
}

func TestRecoverCorruptLatestSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{})
	tracker := core.NewTracker(core.Config{
		OnRecord: func(rec core.BanRecord) { s.AppendMisbehavior(rec) },
	})
	tracker.MisbehavingCtx("p", true, core.AddrOversize, core.MisbehaviorContext{})
	if err := s.Snapshot(CaptureState(tracker, nil, nil), s.LSN()); err != nil {
		t.Fatal(err)
	}
	tracker.MisbehavingCtx("p", true, core.AddrOversize, core.MisbehaviorContext{})
	s.AppendGood("p", 1)
	if err := s.Snapshot(CaptureState(tracker, nil, nil), s.LSN()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, snaps, _ := wal.ScanDir(dir)
	if len(snaps) != 2 {
		t.Fatalf("want 2 snapshot generations, got %d", len(snaps))
	}
	// Corrupt the newest generation's payload.
	newest := snaps[len(snaps)-1].Path
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rec := openTest(t, dir, Options{})
	defer func() { _ = s2.Close() }()
	if rec.Snapshot == nil {
		t.Fatal("recovery must fall back to the previous snapshot generation")
	}
	if rec.Truncations == 0 {
		t.Fatal("corrupt snapshot generation not counted")
	}
	restored := core.NewTracker(core.Config{})
	Restore(rec, restored, nil, nil)
	// The older snapshot has score 20; the retained WAL replays the second
	// hit (absolute total 40) on top.
	if restored.Score("p") != 40 {
		t.Fatalf("fallback + WAL replay produced score %d, want 40", restored.Score("p"))
	}
}

// wireStore couples live components to a store the way the node does:
// tracker OnRecord → WAL, ban → WAL, reputation Recorder → WAL.
func wireStore(clk *virtualClock, s *Store, shards int) (*core.Tracker, *core.Ledger, *reputation.Engine) {
	ledger := core.NewLedger(0, 0)
	cfg := core.Config{
		Clock:     clk.Now,
		Forensics: ledger,
	}
	banDur := core.DefaultBanDuration
	cfg.OnRecord = func(rec core.BanRecord) {
		s.AppendMisbehavior(rec)
		if rec.Banned {
			s.AppendBan(rec.Peer, rec.At.Add(banDur))
		}
	}
	tracker := core.NewTracker(cfg)
	engine := reputation.New(reputation.Config{
		Clock:      clk,
		ShardCount: shards,
		Recorder:   s,
	})
	return tracker, ledger, engine
}

func TestRestorePropertyByteForByte(t *testing.T) {
	// restore(snapshot + WAL) must equal the live state byte-for-byte —
	// with the snapshot taken mid-stream (overlapping the log) and the
	// restore running at a different shard count than the writer.
	for _, shards := range []int{8, 64, 256} {
		dir := t.TempDir()
		clk := newVirtualClock()
		s, _ := openTest(t, dir, Options{Clock: clk})

		tracker, ledger, engine := wireStore(clk, s, 8)
		peers := []core.PeerID{
			"203.0.113.7:8333", "203.0.113.9:8333", "198.51.100.1:8333",
			"198.51.100.2:8333", "192.0.2.55:8333",
		}
		for round := 0; round < 12; round++ {
			p := peers[round%len(peers)]
			res := tracker.MisbehavingCtx(p, true, core.AddrOversize, core.MisbehaviorContext{Command: "addr"})
			if res.Applied {
				engine.Penalize(p, res.Delta)
			}
			if round%3 == 0 {
				engine.Credit(p, reputation.CreditBlock)
				s.AppendGood(p, tracker.AddGood(p))
			}
			if round == 5 {
				// Mid-stream snapshot: LSN read BEFORE capture, so the
				// retained log overlaps it.
				lsn := s.LSN()
				if err := s.Snapshot(CaptureState(tracker, ledger, engine), lsn); err != nil {
					t.Fatal(err)
				}
			}
			if round == 7 {
				s.AppendForget(peers[4])
				tracker.Forget(peers[4])
			}
			clk.Advance(90 * time.Second)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		want := EncodeState(CaptureState(tracker, ledger, engine))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, rec := openTest(t, dir, Options{Clock: clk})
		rTracker := core.NewTracker(core.Config{Clock: clk.Now, Forensics: core.NewLedger(0, 0)})
		rLedger := rTracker.Config().Forensics
		rEngine := reputation.New(reputation.Config{Clock: clk, ShardCount: shards})
		Restore(rec, rTracker, rLedger, rEngine)
		got := EncodeState(CaptureState(rTracker, rLedger, rEngine))
		_ = s2.Close()

		if !bytes.Equal(got, want) {
			t.Fatalf("shards=%d: restored state differs from live state (%d vs %d bytes)",
				shards, len(got), len(want))
		}
	}
}

// TestOpenRetainsViewsNotRecords pins what a reopen costs the heap after a
// serial-Sybil flood: Open keeps each retained record as a view into the
// segment image it read, so the growth is that image plus a slice header
// per record, not a decoded Record union per record. Not parallel: it
// reads the process heap.
func TestOpenRetainsViewsNotRecords(t *testing.T) {
	const records = 20000
	dir := t.TempDir()
	s, _ := openTest(t, dir, Options{Fsync: FsyncNone})
	at := time.Unix(1700000000, 0)
	for i := 0; i < records/2; i++ {
		peer := core.PeerID(fmt.Sprintf("%d.%d.7.7:4001", 20+(i>>8), i&0xff))
		s.AppendMisbehavior(core.BanRecord{
			Seq: uint64(i + 1), At: at, Peer: peer, RuleID: core.VersionDuplicate, Rule: "VersionDuplicate",
			Delta: 1, Score: i%100 + 1, Command: "version", PayloadDigest: 0xdeadbeef, PayloadLen: 125,
		})
		s.RecordPenalty(reputation.PenaltyRecord{
			ID: peer, Seq: uint64(i + 1), At: at, Mis: float64(i%100 + 1), Contributed: float64(i%100 + 1),
			Group: fmt.Sprintf("v4:%d.%d", 20+(i>>8), i&0xff), Pressure: 12.5, BannedUntil: at.Add(time.Hour),
			Identities: 1, Bans: uint64(i % 3),
		})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var segBytes int64
	segs, _, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		fi, err := os.Stat(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		segBytes += fi.Size()
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s2, rec := openTest(t, dir, Options{Fsync: FsyncNone})
	runtime.GC()
	runtime.ReadMemStats(&after)
	defer func() { _ = s2.Close() }()
	if len(rec.Records) != records || rec.Truncations != 0 {
		t.Fatalf("recovered %d records with %d truncations, want %d clean", len(rec.Records), rec.Truncations, records)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("Open retained %d B (%d B/record) from a %d B log", grew, grew/records, segBytes)
	if budget := segBytes + 40*records; grew > budget {
		t.Fatalf("Open retained %d B for %d records (%d B/record) from a %d B log; want <= %d",
			grew, records, grew/records, segBytes, budget)
	}
	runtime.KeepAlive(rec)
}
