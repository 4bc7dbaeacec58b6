package core_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"unicode/utf8"

	"banscore/internal/core"
	"banscore/internal/observer"
	"banscore/internal/reputation"
)

// FuzzPeerPath holds the three per-peer HTTP lookups to the identifier a
// client escaped into the path: GET <prefix>/<url.PathEscape(id)> on
// /debug/bans, /debug/reputation and /fleet/peers answers for exactly id.
// The identifiers it cannot name are excluded: the empty one and one with a
// leading or trailing "/" (the prefix itself), "." and ".." (the mux
// cleans them away), and invalid UTF-8 (a JSON document cannot carry it).
func FuzzPeerPath(f *testing.F) {
	for _, id := range []string{"203.0.113.7:8333", "[2001:db8::1]:8333", "[fe80::1%12]:8333", "[fe80::1%eth0]:8333", "a/b"} {
		f.Add(id)
	}
	ledger := core.NewLedger(1<<30, 1) // no peer is evicted for the others
	engine := reputation.New(reputation.Config{})
	store, err := observer.OpenStore(observer.Options{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	mux := http.NewServeMux()
	mux.Handle("/debug/bans/", ledger.Handler(nil))
	mux.Handle("/debug/reputation/", engine.Handler())
	mux.Handle("/fleet/", store.QueryHandler())
	// Each identifier is recorded once: minimization replays one input
	// thousands of times, and a history that grew with every replay would
	// make each response longer than the last.
	seen := make(map[string]bool)
	f.Fuzz(func(t *testing.T, id string) {
		if id == "" || id == "." || id == ".." || strings.HasPrefix(id, "/") || strings.HasSuffix(id, "/") || !utf8.ValidString(id) {
			t.Skip()
		}
		if !seen[id] {
			seen[id] = true
			ledger.Append(core.BanRecord{Peer: core.PeerID(id), Rule: "fuzz", Delta: 1, Score: 1})
			engine.Penalize(core.PeerID(id), 1)
			store.Ingest(observer.Event{Node: "n1", Stream: observer.StreamJournal, Seq: uint64(len(seen)), Kind: "ban", Peer: id})
		}
		for _, prefix := range []string{"/debug/bans/", "/debug/reputation/", "/fleet/peers/"} {
			target := prefix + url.PathEscape(id)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
			var doc struct {
				Peer string `json:"peer"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); rec.Code != http.StatusOK || err != nil || doc.Peer != id {
				t.Fatalf("GET %s: HTTP %d, %s; want peer %q", target, rec.Code, rec.Body.Bytes(), id)
			}
		}
	})
}
