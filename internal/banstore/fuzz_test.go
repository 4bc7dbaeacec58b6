package banstore

import (
	"encoding/binary"
	"os"
	"testing"

	"banscore/internal/core"
	"banscore/internal/reputation"
	"banscore/internal/wal"
)

// resealed re-frames every whole frame of body under a correct checksum,
// so a mutated payload reaches decodeRecord instead of failing its CRC
// (wal's FuzzRecover covers that path). A torn tail is kept as is.
func resealed(body []byte) []byte {
	var out []byte
	off := 0
	for off+wal.FrameOverhead <= len(body) {
		plen := int(binary.LittleEndian.Uint32(body[off:]))
		end := off + wal.FrameOverhead + plen
		if plen == 0 || end > len(body) {
			break
		}
		out = wal.AppendFrame(out, body[off+wal.FrameOverhead:end])
		off = end
	}
	return append(out, body[off:]...)
}

// FuzzOpenRestore writes body, resealed, after a valid segment header and
// checks the invariant Restore rests on now that it decodes lazily: Open
// never errors on content, every record it retains decodes, Restore into
// fresh components never panics, and a second Open of the same directory
// is a fixed point (same records, no new truncations).
func FuzzOpenRestore(f *testing.F) {
	segs, _, err := wal.ScanDir("testdata/golden/store")
	if err != nil {
		f.Fatal(err)
	}
	for _, seg := range segs {
		b, err := os.ReadFile(seg.Path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[len(walMagic)+8:])
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		seg, err := wal.CreateSegment(dir, walMagic, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.Write(resealed(body)); err != nil {
			t.Fatal(err)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}

		s, rec := openTest(t, dir, Options{Fsync: FsyncNone})
		decodedRecords(t, rec)
		tracker := core.NewTracker(core.Config{Forensics: core.NewLedger(0, 0)})
		Restore(rec, tracker, tracker.Config().Forensics, reputation.New(reputation.Config{}))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		s2, rec2 := openTest(t, dir, Options{Fsync: FsyncNone})
		defer func() { _ = s2.Close() }()
		if len(rec2.Records) != len(rec.Records) || rec2.LastLSN != rec.LastLSN || rec2.Truncations != 0 {
			t.Fatalf("second Open is not a fixed point: %d records to LSN %d with %d truncations after %d to LSN %d",
				len(rec2.Records), rec2.LastLSN, rec2.Truncations, len(rec.Records), rec.LastLSN)
		}
	})
}
