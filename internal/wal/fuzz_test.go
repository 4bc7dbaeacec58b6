package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// fuzzWritten is how many records buildFuzzDir appends in either shape.
const fuzzWritten = 36

// buildFuzzDir writes one of two valid directories. Shape 0 is a log with
// no snapshots: segments 1..10, 11..20, 21..30 and an empty one at 31.
// Shape 1 has taken three snapshots with two retained: snapshots 20 and 30,
// segments 21..30 and 31..36. Both leave any single damaged file with a
// fallback (an older generation, or the log from LSN 1), which is what lets
// FuzzRecover demand an exact prefix; TestRecoverSalvagesTailWithoutSnapshot
// covers the directory that has none.
func buildFuzzDir(t *testing.T, dir string, shape uint8) {
	l := openTestLog(t, dir, 1)
	for gen := 0; gen < 3; gen++ {
		l.append(10)
		if shape == 0 {
			l.rotate()
		} else {
			l.snapshot(2)
		}
	}
	if shape == 1 {
		l.append(fuzzWritten - 30)
	}
	l.close()
}

// FuzzRecover damages one file of a valid directory — cut it short, then
// xor one byte — and checks the recovery contract. One damaged byte is a
// burst CRC32C always detects, so the assertions are exact: Recover never
// errors or panics; every replayed payload is byte-identical to a written
// one; snapshot plus records cover exactly 1..LastLSN, a prefix of what was
// written; a second Recover changes nothing; and a log continued at
// LastLSN+1 recovers with its numbering intact.
func FuzzRecover(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(0xffff), uint16(0), uint8(0))            // untouched
	f.Add(uint8(0), uint8(1), uint16(16+4*18), uint16(0), uint8(0))           // middle segment cut at a frame boundary
	f.Add(uint8(0), uint8(2), uint16(16+4*18+5), uint16(0), uint8(0))         // torn frame
	f.Add(uint8(0), uint8(1), uint16(0xffff), uint16(9), uint8(0x02))         // segment start field
	f.Add(uint8(0), uint8(0), uint16(0xffff), uint16(0), uint8(0x80))         // segment magic
	f.Add(uint8(1), uint8(1), uint16(0xffff), uint16(8), uint8(0x01))         // newest snapshot's LSN field
	f.Add(uint8(1), uint8(1), uint16(0xffff), uint16(30), uint8(0xff))        // newest snapshot's payload
	f.Add(uint8(1), uint8(0), uint16(0), uint16(0), uint8(0))                 // fallback snapshot emptied
	f.Add(uint8(1), uint8(2), uint16(0xffff), uint16(16+2*18+3), uint8(0x10)) // frame CRC field
	f.Add(uint8(1), uint8(3), uint16(16+18), uint16(16), uint8(0x40))         // length prefix of the last surviving frame

	f.Fuzz(func(t *testing.T, shape, file uint8, cut, flipAt uint16, flipMask uint8) {
		dir := t.TempDir()
		buildFuzzDir(t, dir, shape%2)
		names := make([]string, 0, 4)
		for name := range dirImage(t, dir) {
			names = append(names, name)
		}
		sort.Strings(names)
		path := filepath.Join(dir, names[int(file)%len(names)])
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int(cut) < len(b) {
			b = b[:cut]
		}
		if len(b) > 0 {
			b[int(flipAt)%len(b)] ^= flipMask
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}

		first := recoverTestLog(t, dir, false)
		if first.res.LastLSN > fuzzWritten {
			t.Fatalf("LastLSN %d exceeds the %d records written", first.res.LastLSN, fuzzWritten)
		}

		repaired := dirImage(t, dir)
		second := recoverTestLog(t, dir, false)
		if second.res.Truncations > first.res.Truncations {
			t.Fatalf("second recovery found new damage: %+v after %+v", second.res, first.res)
		}
		second.res.Truncations = first.res.Truncations
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("second recovery is not a fixed point:\n%+v\n%+v", first, second)
		}
		if !reflect.DeepEqual(repaired, dirImage(t, dir)) {
			t.Fatal("second recovery rewrote the directory")
		}

		l := openTestLog(t, dir, first.res.LastLSN+1)
		l.append(3)
		l.close()
		third := recoverTestLog(t, dir, false)
		if third.res.LastLSN != first.res.LastLSN+3 || third.res.SnapshotLSN != first.res.SnapshotLSN {
			t.Fatalf("continued log recovered as %+v after %+v", third.res, first.res)
		}
	})
}
