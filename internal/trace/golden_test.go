package trace

import (
	"bytes"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// TestQueryGoldenDocument pins the /debug/trace body byte for byte over a
// span store that has wrapped: capacity 4, seven spans, so 4..7 are retained
// and ?n=3 tails 5..7. The golden file was written by the last commit whose
// Tracer indexed its own buffer.
func TestQueryGoldenDocument(t *testing.T) {
	tr := New(Config{Capacity: 4})
	tr.Enable()
	base := time.Date(2026, 9, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 7; i++ {
		sp := Span{Stage: StageHandle, Peer: "10.0.0.2:50001", Cmd: "version",
			Start: base.Add(time.Duration(i) * time.Millisecond), Duration: time.Duration(i+1) * time.Microsecond}
		if i == 6 {
			sp.Stage, sp.Rule, sp.Note = StageMisbehave, "VersionDuplicate", "banned"
		}
		tr.Always().Add(sp)
	}
	rec := httptest.NewRecorder()
	tr.QueryHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n=3", nil))
	want, err := os.ReadFile("testdata/trace_query.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("/debug/trace?n=3 mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
