package observer

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// Decoded times carry the local zone; pin it so the JSON rendering of the
// tables does not depend on the host.
func init() { time.Local = time.UTC }

// copyDir copies the regular files of src into a fresh temp dir: OpenStore
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

// goldenTables renders everything recovery rebuilds: the event table in
// append order, the cursors, the per-stream sequence frontier and Status.
func goldenTables(t *testing.T, s *Store) []byte {
	t.Helper()
	s.mu.Lock()
	lastSeq := make([]string, 0, len(s.lastSeq))
	for k, v := range s.lastSeq {
		b, _ := json.Marshal([]any{k.node, k.stream, v})
		lastSeq = append(lastSeq, string(b))
	}
	sort.Strings(lastSeq)
	view := struct {
		Events  []Event
		Cursors map[string]Cursor
		LastSeq []string
	}{s.events, s.cursors, lastSeq}
	b, err := json.MarshalIndent(view, "", " ")
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	st, err := json.Marshal(s.Status())
	if err != nil {
		t.Fatal(err)
	}
	return append(append(b, '\n'), append(st, '\n')...)
}

// TestGoldenDirectory pins the on-disk format across the move onto
// internal/wal: testdata/golden/store was written, and tables.json rendered
// from its reopened tables, by the last commit whose observer store owned
// its recovery loop (three snapshots with two retained, pruned segments,
// both record kinds, a cursor generation bump, a tail past the newest
// snapshot).
func TestGoldenDirectory(t *testing.T) {
	want, err := os.ReadFile("testdata/golden/tables.json")
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, copyDir(t, "testdata/golden/store"))
	defer s.Close()
	if got := goldenTables(t, s); !bytes.Equal(got, want) {
		t.Fatalf("golden directory recovers differently:\n%s", got)
	}
	if st := s.Status(); st.SnapshotLSN == 0 || st.Truncations != 0 || st.LSN <= st.SnapshotLSN {
		t.Fatalf("golden directory is not the shape the test documents: %+v", st)
	}
}
