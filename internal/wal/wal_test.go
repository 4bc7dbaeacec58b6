package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var (
	testWALMagic  = []byte("TSWAL001")
	testSnapMagic = []byte("TSSNAP01")
)

func TestFrameRoundTripAndScanStops(t *testing.T) {
	var log []byte
	for i := 0; i < 5; i++ {
		log = AppendFrame(log, []byte(fmt.Sprintf("payload-%d", i)))
	}
	// A frame encoded in place is the same bytes.
	start := len(log)
	log = append(log, make([]byte, FrameOverhead)...)
	log = append(log, "payload-5"...)
	if size := SealFrame(log, start); size != len(log)-start {
		t.Fatalf("SealFrame size %d, want %d", size, len(log)-start)
	}
	if want := AppendFrame(log[:start:start], []byte("payload-5")); !bytes.Equal(log, want) {
		t.Fatal("SealFrame and AppendFrame disagree on the frame image")
	}

	count := scanFrames
	accept := func([]byte) error { return nil }

	if n, good, clean := count(log, accept); n != 6 || !clean || good != int64(len(log)) {
		t.Fatalf("intact log: n=%d good=%d clean=%v", n, good, clean)
	}
	frame := int64(FrameOverhead + len("payload-0"))
	// Torn tail: half a frame header, then half a payload.
	for _, cut := range []int{len(log) - 3, len(log) - int(frame) + 4} {
		if n, good, clean := count(log[:cut], accept); n != 5 || clean || good != 5*frame {
			t.Fatalf("cut at %d: n=%d good=%d clean=%v", cut, n, good, clean)
		}
	}
	// Bit flip in the third payload: the prefix before it survives.
	flipped := append([]byte(nil), log...)
	flipped[2*frame+FrameOverhead+1] ^= 0x10
	if n, good, clean := count(flipped, accept); n != 2 || clean || good != 2*frame {
		t.Fatalf("bit flip: n=%d good=%d clean=%v", n, good, clean)
	}
	// A zero length prefix is corruption, not an empty record.
	if n, _, clean := count(append(append([]byte(nil), log[:frame]...), make([]byte, FrameOverhead)...), accept); n != 1 || clean {
		t.Fatalf("zero-length frame: n=%d clean=%v", n, clean)
	}
	// A CRC-valid payload the schema rejects ends the log too.
	reject := func(p []byte) error {
		if string(p) == "payload-3" {
			return ErrCorrupt
		}
		return nil
	}
	if n, good, clean := count(log, reject); n != 3 || clean || good != 3*frame {
		t.Fatalf("schema reject: n=%d good=%d clean=%v", n, good, clean)
	}
}

func TestSegmentAndSnapshotHeaders(t *testing.T) {
	hdr := segmentHeader(testWALMagic, 42)
	if n, err := parseSegmentHeader(testWALMagic, 42, append(hdr, 1, 2, 3)); err != nil || n != len(hdr) {
		t.Fatalf("segment header: n=%d err=%v", n, err)
	}
	if _, err := parseSegmentHeader(testSnapMagic, 42, hdr); !errors.Is(err, errBadHeader) {
		t.Fatalf("foreign magic accepted: %v", err)
	}
	if _, err := parseSegmentHeader(testWALMagic, 43, hdr); !errors.Is(err, errBadHeader) {
		t.Fatalf("start LSN other than the file name's accepted: %v", err)
	}
	if _, err := parseSegmentHeader(testWALMagic, 42, hdr[:len(hdr)-1]); !errors.Is(err, errBadHeader) {
		t.Fatalf("short header accepted: %v", err)
	}

	img := encodeSnapshotFile(testSnapMagic, 7, []byte("state"))
	if payload, err := decodeSnapshotFile(testSnapMagic, 7, img); err != nil || string(payload) != "state" {
		t.Fatalf("snapshot: payload=%q err=%v", payload, err)
	}
	if _, err := decodeSnapshotFile(testWALMagic, 7, img); !errors.Is(err, errBadHeader) {
		t.Fatalf("foreign magic accepted: %v", err)
	}
	if _, err := decodeSnapshotFile(testSnapMagic, 8, img); !errors.Is(err, errBadHeader) {
		t.Fatalf("LSN other than the file name's accepted: %v", err)
	}
	if _, err := decodeSnapshotFile(testSnapMagic, 7, img[:len(img)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated snapshot accepted: %v", err)
	}
	img[len(img)-1] ^= 1
	if _, err := decodeSnapshotFile(testSnapMagic, 7, img); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped snapshot accepted: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	at := time.Unix(1700000000, 123)
	var b []byte
	b = AppendUvarint(b, 1<<40)
	b = AppendVarint(b, -12345)
	b = AppendString(b, "203.0.113.7:8333")
	b = AppendBool(b, true)
	b = AppendFloat(b, 40.5)
	b = AppendTime(b, at)
	b = AppendTime(b, time.Time{})
	b = AppendTime(b, time.Unix(0, 0)) // epoch 0 is a value, not "absent"

	d := NewDecoder(b)
	if v := d.Uvarint(); v != 1<<40 {
		t.Fatalf("uvarint %d", v)
	}
	if v := d.Varint(); v != -12345 {
		t.Fatalf("varint %d", v)
	}
	if v := d.Str(); v != "203.0.113.7:8333" {
		t.Fatalf("string %q", v)
	}
	if !d.Bool() {
		t.Fatal("bool")
	}
	if v := d.Float(); v != 40.5 {
		t.Fatalf("float %v", v)
	}
	if v := d.Time(); !v.Equal(at) {
		t.Fatalf("time %v", v)
	}
	if v := d.Time(); !v.IsZero() {
		t.Fatalf("zero time %v", v)
	}
	if v := d.Time(); v.IsZero() || v.UnixNano() != 0 {
		t.Fatalf("epoch-0 time %v", v)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}

	// Every strict prefix fails, and the failure sticks.
	for cut := 0; cut < len(b); cut++ {
		d := NewDecoder(b[:cut])
		d.Uvarint()
		d.Varint()
		_ = d.Str()
		d.Bool()
		d.Float()
		d.Time()
		d.Time()
		d.Time()
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("prefix of %d bytes decoded cleanly", cut)
		}
		if d.Uvarint() != 0 || d.Str() != "" {
			t.Fatal("reads after a failure must return zero values")
		}
	}
	// A string length beyond the payload is rejected without allocating it.
	d = NewDecoder(AppendUvarint(nil, 1<<50))
	if d.Str() != "" || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatal("oversized string length accepted")
	}
}

func TestScanDirOrdersAndIgnoresJunk(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{
		segmentFileName(0x20), segmentFileName(3), snapshotFileName(0x1f), snapshotFileName(2),
		"wal-zz.log", "snap-1.snap.tmp", "notes.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, snaps, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Start != 3 || segs[1].Start != 0x20 {
		t.Fatalf("segments %+v", segs)
	}
	if len(snaps) != 2 || snaps[0].Start != 2 || snaps[1].Start != 0x1f {
		t.Fatalf("snapshots %+v", snaps)
	}
	if _, _, err := ScanDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing directory must be an error")
	}
}

func TestWriteSnapshotReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotFileName(9))
	for _, state := range []string{"first generation", "second"} {
		if err := WriteSnapshot(dir, testSnapMagic, 9, []byte(state), true); err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(path)
		if got, err := decodeSnapshotFile(testSnapMagic, 9, b); err != nil || string(got) != state {
			t.Fatalf("read %q err=%v, want %q", got, err, state)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

// testLog drives the segment lifecycle the way a store does: one active
// segment, implicit LSNs, payloads that name their own LSN so a replay can
// be checked against what was written.
type testLog struct {
	t    *testing.T
	dir  string
	f    *os.File
	next uint64
}

func recPayload(lsn uint64) []byte  { return []byte(fmt.Sprintf("rec-%06d", lsn)) }
func snapPayload(lsn uint64) []byte { return []byte(fmt.Sprintf("state-through-%06d", lsn)) }

func openTestLog(t *testing.T, dir string, next uint64) *testLog {
	t.Helper()
	f, err := CreateSegment(dir, testWALMagic, next, false)
	if err != nil {
		t.Fatal(err)
	}
	return &testLog{t: t, dir: dir, f: f, next: next}
}

func (l *testLog) append(n int) {
	l.t.Helper()
	for ; n > 0; n-- {
		if _, err := l.f.Write(AppendFrame(nil, recPayload(l.next))); err != nil {
			l.t.Fatal(err)
		}
		l.next++
	}
}

func (l *testLog) rotate() {
	l.t.Helper()
	f, err := RotateSegment(l.f, l.dir, testWALMagic, l.next, false)
	if err != nil {
		l.t.Fatal(err)
	}
	l.f = f
}

func (l *testLog) snapshot(keep int) {
	l.t.Helper()
	lsn := l.next - 1
	if err := WriteSnapshot(l.dir, testSnapMagic, lsn, snapPayload(lsn), false); err != nil {
		l.t.Fatal(err)
	}
	l.rotate()
	Prune(l.dir, keep, false)
}

func (l *testLog) close() {
	l.t.Helper()
	if err := l.f.Close(); err != nil {
		l.t.Fatal(err)
	}
}

// replay is one Recover call's observable outcome.
type replay struct {
	res     Recovery
	snapLSN uint64   // LSN handed to onSnapshot (0: none accepted)
	records []uint64 // LSN each replayed payload names, in replay order
}

// recoverTestLog runs Recover and checks what every caller relies on: no
// error, payloads byte-identical to what was written, and snapshot plus
// replayed records covering exactly 1..LastLSN with no hole. salvage
// permits the one documented exception: with no snapshot the log may start
// past LSN 1.
func recoverTestLog(t *testing.T, dir string, salvage bool) replay {
	t.Helper()
	var rp replay
	res, err := Recover(dir, testWALMagic, testSnapMagic,
		func(payload []byte) error {
			if _, err := fmt.Sscanf(string(payload), "state-through-%06d", &rp.snapLSN); err != nil || !bytes.Equal(payload, snapPayload(rp.snapLSN)) {
				t.Fatalf("recovered a snapshot that was never written: %q", payload)
			}
			return nil
		},
		func(payload []byte) error {
			var lsn uint64
			if _, err := fmt.Sscanf(string(payload), "rec-%06d", &lsn); err != nil || !bytes.Equal(payload, recPayload(lsn)) {
				t.Fatalf("replayed a payload that was never written: %q", payload)
			}
			rp.records = append(rp.records, lsn)
			return nil
		})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	rp.res = res
	if res.SnapshotLSN != rp.snapLSN {
		t.Fatalf("SnapshotLSN %d, but onSnapshot accepted %d", res.SnapshotLSN, rp.snapLSN)
	}
	covered := rp.snapLSN
	for i, lsn := range rp.records {
		if i == 0 && covered == 0 && salvage {
			covered = lsn - 1
		}
		if i > 0 && lsn <= rp.records[i-1] {
			t.Fatalf("replay out of order at %d: %v", i, rp.records)
		}
		if lsn > covered+1 {
			t.Fatalf("hole: record %d replayed with only 1..%d covered (snapshot %d, records %v)", lsn, covered, rp.snapLSN, rp.records)
		}
		if lsn > covered {
			covered = lsn
		}
	}
	if covered != res.LastLSN {
		t.Fatalf("LastLSN %d, but snapshot+records cover 1..%d", res.LastLSN, covered)
	}
	return rp
}

func dirImage(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := make(map[string]string, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		img[e.Name()] = string(b)
	}
	return img
}

func TestRecoverEmptyAndMissingDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh", "store")
	rp := recoverTestLog(t, dir, false)
	if rp.res != (Recovery{}) || len(rp.records) != 0 {
		t.Fatalf("fresh directory recovered %+v", rp)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("Recover must create the directory: %v", err)
	}
}

func TestLifecycleRotatePruneRecover(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 1)
	for gen := 0; gen < 3; gen++ {
		l.append(10)
		l.snapshot(2)
	}
	l.append(6)
	l.close()

	segs, snaps, _ := ScanDir(dir)
	if len(snaps) != 2 || snaps[0].Start != 20 || snaps[1].Start != 30 {
		t.Fatalf("retained snapshots %+v, want 20 and 30", snaps)
	}
	// Segments wholly at or below the OLDEST retained snapshot are gone;
	// 21.. stays so the fallback generation can still catch up.
	if len(segs) != 2 || segs[0].Start != 21 || segs[1].Start != 31 {
		t.Fatalf("retained segments %+v, want 21 and 31", segs)
	}

	rp := recoverTestLog(t, dir, false)
	if rp.res != (Recovery{LastLSN: 36, SnapshotLSN: 30}) || len(rp.records) != 16 {
		t.Fatalf("recovered %+v", rp)
	}

	// Reopening at the frontier with nothing appended reuses the segment a
	// previous open began: same file, header written once.
	for i := 0; i < 2; i++ {
		openTestLog(t, dir, rp.res.LastLSN+1).close()
	}
	b, err := os.ReadFile(filepath.Join(dir, segmentFileName(37)))
	if err != nil || !bytes.Equal(b, segmentHeader(testWALMagic, 37)) {
		t.Fatalf("reused segment image %x (%v)", b, err)
	}
	l = openTestLog(t, dir, 37)
	l.append(2)
	l.close()
	if rp := recoverTestLog(t, dir, false); rp.res.LastLSN != 38 {
		t.Fatalf("LastLSN %d after appending past a reused segment, want 38", rp.res.LastLSN)
	}
}

func TestRecoverCorruptionOutcomes(t *testing.T) {
	// Shape: snapshots at 20 and 30 retained; segments 21..30 and 31..36.
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l := openTestLog(t, dir, 1)
		for gen := 0; gen < 3; gen++ {
			l.append(10)
			l.snapshot(2)
		}
		l.append(6)
		l.close()
		return dir
	}
	frame := int64(FrameOverhead + len(recPayload(1)))
	hdr := int64(len(testWALMagic) + 8)
	mutate := func(t *testing.T, path string, fn func(b []byte) []byte) {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, fn(b), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exists := func(dir, name string) bool {
		_, err := os.Stat(filepath.Join(dir, name))
		return err == nil
	}

	cases := []struct {
		name    string
		file    string
		fn      func(b []byte) []byte
		want    Recovery
		records int
		gone    []string
	}{
		{
			name: "torn tail is truncated",
			file: segmentFileName(31),
			fn:   func(b []byte) []byte { return b[:len(b)-3] },
			want: Recovery{LastLSN: 35, SnapshotLSN: 30, Truncations: 1}, records: 15,
		},
		{
			name: "bit flip mid-segment drops the tail and later segments",
			file: segmentFileName(21),
			fn:   func(b []byte) []byte { b[hdr+4*frame+FrameOverhead] ^= 0x40; return b },
			want: Recovery{LastLSN: 30, SnapshotLSN: 30, Truncations: 2}, records: 4,
			gone: []string{segmentFileName(31)},
		},
		{
			name: "corrupt newest snapshot falls back a generation",
			file: snapshotFileName(30),
			fn:   func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
			want: Recovery{LastLSN: 36, SnapshotLSN: 20, Truncations: 1}, records: 16,
		},
		{
			name: "snapshot LSN field disagreeing with its name is corrupt",
			file: snapshotFileName(30),
			fn:   func(b []byte) []byte { b[len(testSnapMagic)+5] ^= 0x01; return b },
			want: Recovery{LastLSN: 36, SnapshotLSN: 20, Truncations: 1}, records: 16,
		},
		{
			name: "segment start field disagreeing with its name is unreachable",
			file: segmentFileName(31),
			fn:   func(b []byte) []byte { b[len(testWALMagic)+6] ^= 0x01; return b },
			want: Recovery{LastLSN: 30, SnapshotLSN: 30, Truncations: 1}, records: 10,
			gone: []string{segmentFileName(31)},
		},
		{
			name: "bad magic makes the segment and its successors unreachable",
			file: segmentFileName(21),
			fn:   func(b []byte) []byte { b[0] ^= 0x01; return b },
			want: Recovery{LastLSN: 30, SnapshotLSN: 30, Truncations: 1}, records: 0,
			gone: []string{segmentFileName(21), segmentFileName(31)},
		},
		{
			name: "segment cut at a frame boundary is clean; the snapshot bridges it",
			file: segmentFileName(21),
			fn:   func(b []byte) []byte { return b[:hdr+5*frame] },
			want: Recovery{LastLSN: 36, SnapshotLSN: 30}, records: 11,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := build(t)
			mutate(t, filepath.Join(dir, tc.file), tc.fn)
			rp := recoverTestLog(t, dir, false)
			if rp.res != tc.want || len(rp.records) != tc.records {
				t.Fatalf("recovered %+v with %d records, want %+v with %d", rp.res, len(rp.records), tc.want, tc.records)
			}
			for _, name := range tc.gone {
				if exists(dir, name) {
					t.Fatalf("%s should have been deleted", name)
				}
			}
			// What recovery repaired stays repaired: a second pass sees no
			// new segment damage and the same state.
			again := recoverTestLog(t, dir, false)
			again.res.Truncations, rp.res.Truncations = 0, 0
			if again.res != rp.res || len(again.records) != len(rp.records) {
				t.Fatalf("second recovery differs: %+v vs %+v", again, rp)
			}
		})
	}
}

// TestRecoverStopsAtLogHole: a non-final segment that lost whole frames
// still scans clean, so the hole only shows as the next segment starting
// past the frontier. Replaying across it would hand the caller records
// whose predecessors are gone (for the observer store: a cursor whose
// events did not survive).
func TestRecoverStopsAtLogHole(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 1)
	for seg := 0; seg < 3; seg++ {
		l.append(10)
		l.rotate()
	}
	l.close()
	frame := int64(FrameOverhead + len(recPayload(1)))
	if err := os.Truncate(filepath.Join(dir, segmentFileName(11)), int64(len(testWALMagic)+8)+4*frame); err != nil {
		t.Fatal(err)
	}
	rp := recoverTestLog(t, dir, false)
	if rp.res != (Recovery{LastLSN: 14, Truncations: 1}) || len(rp.records) != 14 {
		t.Fatalf("recovered %+v", rp)
	}
	if segs, _, _ := ScanDir(dir); len(segs) != 2 {
		t.Fatalf("segments past the hole must be deleted, have %+v", segs)
	}
}

// TestRecoverSalvagesTailWithoutSnapshot: when every snapshot generation
// is lost, the pruned log no longer reaches back to LSN 1. Recovery replays
// the tail it has rather than discarding it.
func TestRecoverSalvagesTailWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 1)
	l.append(10)
	l.snapshot(2)
	l.append(5)
	l.close()
	if err := os.Remove(filepath.Join(dir, snapshotFileName(10))); err != nil {
		t.Fatal(err)
	}
	rp := recoverTestLog(t, dir, true)
	if rp.res != (Recovery{LastLSN: 15}) || len(rp.records) != 5 || rp.records[0] != 11 {
		t.Fatalf("recovered %+v", rp)
	}
}

func TestRecoverSnapshotDecodeErrorSkipsGeneration(t *testing.T) {
	dir := t.TempDir()
	l := openTestLog(t, dir, 1)
	l.append(4)
	l.snapshot(2)
	l.append(4)
	l.snapshot(2)
	l.close()
	var offered []string
	res, err := Recover(dir, testWALMagic, testSnapMagic,
		func(payload []byte) error {
			offered = append(offered, string(payload))
			if bytes.Equal(payload, snapPayload(8)) {
				return ErrCorrupt // CRC-valid, schema-invalid
			}
			return nil
		},
		func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(offered) != 2 || offered[0] != string(snapPayload(8)) || offered[1] != string(snapPayload(4)) {
		t.Fatalf("snapshots offered %v, want newest first then fallback", offered)
	}
	if res != (Recovery{LastLSN: 8, SnapshotLSN: 4, Truncations: 1}) {
		t.Fatalf("recovered %+v", res)
	}
}
