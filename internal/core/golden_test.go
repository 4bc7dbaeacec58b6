package core

import (
	"bytes"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

// TestLedgerGoldenDocuments pins the /debug/bans and /debug/bans/<peer>
// bodies byte for byte over a ledger that has wrapped both ways: 2 peers of
// 3 records, five peers seen (three evicted) and six records on the retained
// flooder (three trimmed, Seq 4..6 left). The golden files were written by
// the last commit whose Ledger indexed its own buffers.
func TestLedgerGoldenDocuments(t *testing.T) {
	l := NewLedger(2, 3)
	at := time.Date(2026, 9, 1, 12, 0, 0, 0, time.UTC)
	add := func(peer PeerID, score int, banned bool) {
		at = at.Add(time.Second)
		l.Append(BanRecord{At: at, Peer: peer, RuleID: VersionDuplicate, Rule: VersionDuplicate.String(),
			Delta: 1, Score: score, Banned: banned, Command: "version", TraceID: uint64(score),
			PayloadDigest: 0xfeedbeef, PayloadLen: 102})
	}
	flooder := PeerID("10.0.0.5:50001")
	for _, p := range []PeerID{"10.0.0.2:50001", "10.0.0.3:50001", "10.0.0.4:50001"} {
		add(p, 1, false)
	}
	for score := 95; score <= 100; score++ {
		add(flooder, score, score == 100)
	}
	add("[::1]:8333", 1, false)

	h := l.Handler(func(id PeerID) bool { return id == flooder })
	for file, path := range map[string]string{
		"bans_index.json": "/debug/bans",
		"bans_peer.json":  "/debug/bans/" + string(flooder),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		want, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("%s mismatch\n--- got ---\n%s--- want ---\n%s", path, got, want)
		}
	}
}
