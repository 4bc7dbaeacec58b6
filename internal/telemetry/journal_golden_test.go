package telemetry

import (
	"net/http/httptest"
	"testing"
	"time"
)

// TestJournalGoldenDocuments pins the /events and /debug/journal bodies byte
// for byte over a journal that has wrapped: capacity 4, seven events, so the
// store holds 4..7 and a cursor at 2 has lost event 3. The golden files were
// written by the last commit whose Journal indexed its own buffer.
func TestJournalGoldenDocuments(t *testing.T) {
	j := NewJournal(4)
	base := time.Date(2026, 9, 1, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 7; i++ {
		ev := Event{At: base.Add(time.Duration(i) * time.Second), Type: EventScore,
			Peer: "10.0.0.2:50001", Rule: "VersionDuplicate", Value: 1}
		if i == 6 {
			ev = Event{At: ev.At, Type: EventBan, Peer: ev.Peer, Value: 100, Detail: "threshold"}
		}
		j.Record(ev)
	}
	srv := NewServer(NewRegistry(), j)
	srv.SetNodeID("golden")
	for file, path := range map[string]string{
		"journal_events.json": "/events",
		"journal_page.json":   "/debug/journal?since=2&limit=2",
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		checkGolden(t, file, rec.Body.Bytes())
	}
}
