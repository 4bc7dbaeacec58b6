package banstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Decoded times carry the local zone; pin it so the JSON rendering of a
// Recovered does not depend on the host.
func init() { time.Local = time.UTC }

// copyDir copies the regular files of src into a fresh temp dir: Open
// writes to the directory it recovers.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestGoldenDirectory pins the on-disk format across the move onto
// internal/wal: testdata/golden/store was written, and recovered.json
// rendered from its Recovered, by the last commit whose banstore owned its
// framing and recovery loop (three snapshots with two retained, pruned
// segments, all six record kinds, a tail past the newest snapshot).
func TestGoldenDirectory(t *testing.T) {
	want, err := os.ReadFile("testdata/golden/recovered.json")
	if err != nil {
		t.Fatal(err)
	}
	s, rec := openTest(t, copyDir(t, "testdata/golden/store"), Options{Fsync: FsyncNone})
	defer func() { _ = s.Close() }()
	// recovered.json renders decoded records; Open retains raw views.
	got, err := json.MarshalIndent(struct {
		Snapshot    *State
		SnapshotLSN uint64
		Records     []Record
		LastLSN     uint64
		Truncations uint64
	}{rec.Snapshot, rec.SnapshotLSN, decodedRecords(t, rec), rec.LastLSN, rec.Truncations}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), want) {
		t.Fatalf("golden directory recovers differently:\n%s", got)
	}
	if rec.Snapshot == nil || rec.Truncations != 0 || len(rec.Records) == 0 {
		t.Fatalf("golden directory is not the shape the test documents: snapshot=%v truncations=%d records=%d",
			rec.Snapshot != nil, rec.Truncations, len(rec.Records))
	}
}
