package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.Append(BanRecord{Peer: "p:1"})
	if l.Records("p:1") != nil || l.Peers() != nil || l.Total() != 0 {
		t.Error("nil ledger retained state")
	}
}

func TestLedgerAppendStampsSequence(t *testing.T) {
	l := NewLedger(0, 0)
	for i := 0; i < 3; i++ {
		l.Append(BanRecord{Peer: "a:1", RuleID: AddrOversize, Rule: "AddrOversize", Delta: 20, Score: 20 * (i + 1)})
	}
	l.Append(BanRecord{Peer: "b:2", Delta: 100, Score: 100, Banned: true})

	a := l.Records("a:1")
	if len(a) != 3 {
		t.Fatalf("chain a holds %d records", len(a))
	}
	for i, r := range a {
		if r.Seq != uint64(i+1) || r.Score != 20*(i+1) {
			t.Errorf("record %d: seq=%d score=%d", i, r.Seq, r.Score)
		}
	}
	if b := l.Records("b:2"); len(b) != 1 || b[0].Seq != 1 {
		t.Errorf("chain b: %+v", b)
	}
	if got := l.Peers(); len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Errorf("peers %v", got)
	}
	if l.Total() != 4 {
		t.Errorf("total %d", l.Total())
	}

	// Records returns a copy — mutating it must not corrupt the ledger.
	a[0].Score = 9999
	if l.Records("a:1")[0].Score == 9999 {
		t.Error("Records exposed internal storage")
	}
}

func TestLedgerWholePeerEviction(t *testing.T) {
	l := NewLedger(2, 0)
	l.Append(BanRecord{Peer: "a:1"})
	l.Append(BanRecord{Peer: "b:2"})
	l.Append(BanRecord{Peer: "c:3"}) // evicts a:1, the oldest

	if l.Records("a:1") != nil {
		t.Error("oldest peer not evicted")
	}
	if l.Records("b:2") == nil || l.Records("c:3") == nil {
		t.Error("surviving peers lost")
	}
	if got := l.Peers(); len(got) != 2 || got[0] != "b:2" || got[1] != "c:3" {
		t.Errorf("peers after eviction: %v", got)
	}
}

func TestLedgerPerPeerTrim(t *testing.T) {
	l := NewLedger(0, 3)
	for i := 1; i <= 5; i++ {
		l.Append(BanRecord{Peer: "a:1", Score: 10 * i})
	}
	records := l.Records("a:1")
	if len(records) != 3 {
		t.Fatalf("chain holds %d records, want 3", len(records))
	}
	// The oldest were trimmed; sequence numbers keep counting.
	for i, r := range records {
		if r.Seq != uint64(i+3) || r.Score != 10*(i+3) {
			t.Errorf("record %d: seq=%d score=%d", i, r.Seq, r.Score)
		}
	}
	if l.Total() != 5 {
		t.Errorf("total %d, want 5 (trim does not rewrite history count)", l.Total())
	}
}

func TestTrackerRecordsForensics(t *testing.T) {
	ledger := NewLedger(0, 0)
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	tr := NewTracker(Config{
		Forensics: ledger,
		Clock:     func() time.Time { return now },
	})
	id := PeerID("10.0.0.9:4747")

	// Five oversize ADDRs ban at the 100 threshold; each call must leave a
	// record carrying the triggering command and trace ID.
	for i := 1; i <= 5; i++ {
		res := tr.MisbehavingCtx(id, true, AddrOversize, MisbehaviorContext{Command: "addr", TraceID: uint64(100 + i)})
		if !res.Applied || res.Score != 20*i {
			t.Fatalf("call %d: %+v", i, res)
		}
		if res.Banned != (i == 5) {
			t.Fatalf("call %d banned=%v", i, res.Banned)
		}
	}
	if !tr.IsBanned(id) {
		t.Fatal("peer not banned")
	}

	records := ledger.Records(id)
	if len(records) != 5 {
		t.Fatalf("ledger holds %d records", len(records))
	}
	for i, r := range records {
		if r.Peer != id || r.RuleID != AddrOversize || r.Rule != "AddrOversize" ||
			r.Delta != 20 || r.Score != 20*(i+1) || !r.At.Equal(now) ||
			r.Command != "addr" || r.TraceID != uint64(101+i) {
			t.Errorf("record %d: %+v", i, r)
		}
		if r.Banned != (i == 4) {
			t.Errorf("record %d banned=%v", i, r.Banned)
		}
	}

	// Forget drops live score state but never forensic history.
	tr.Forget(id)
	if got := ledger.Records(id); len(got) != 5 {
		t.Errorf("Forget erased forensics: %d records left", len(got))
	}

	// The bare Misbehaving wrapper records too, with empty context.
	tr2 := NewTracker(Config{Forensics: ledger})
	misbehave(tr2, "x:1", true, InvOversize)
	if got := ledger.Records("x:1"); len(got) != 1 || got[0].Command != "" || got[0].TraceID != 0 {
		t.Errorf("wrapper record: %+v", got)
	}
}

func TestTrackerRecordsPayloadEvidence(t *testing.T) {
	// The evidence chain: a context carrying the offending message's wire
	// checksum and length must land verbatim in the ledger record, and the
	// Result must report the rule's delta for reputation-layer charging.
	ledger := NewLedger(0, 0)
	tr := NewTracker(Config{Forensics: ledger})
	id := PeerID("10.0.0.9:4747")
	res := tr.MisbehavingCtx(id, true, AddrOversize, MisbehaviorContext{
		Command:       "addr",
		TraceID:       7,
		PayloadDigest: 0xdeadbeef,
		PayloadLen:    30012,
	})
	if !res.Applied || res.Delta != 20 {
		t.Fatalf("result %+v, want applied with delta 20", res)
	}
	records := ledger.Records(id)
	if len(records) != 1 {
		t.Fatalf("ledger holds %d records, want 1", len(records))
	}
	r := records[0]
	if r.PayloadDigest != 0xdeadbeef || r.PayloadLen != 30012 {
		t.Fatalf("record evidence (%#x, %d), want (0xdeadbeef, 30012)", r.PayloadDigest, r.PayloadLen)
	}
	// Evidence-free hits keep the fields out of the JSON document.
	tr.MisbehavingCtx("y:1", true, InvOversize, MisbehaviorContext{Command: "inv"})
	doc, err := json.Marshal(ledger.Records("y:1")[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(doc), "payload_digest") {
		t.Fatalf("evidence-free record leaked digest field: %s", doc)
	}
}

func TestTrackerModesAndForensics(t *testing.T) {
	// Infinity mode scores without banning — records must say so.
	ledger := NewLedger(0, 0)
	tr := NewTracker(Config{Mode: ModeThresholdInfinity, Forensics: ledger})
	id := PeerID("inf:1")
	for i := 0; i < 7; i++ {
		tr.MisbehavingCtx(id, true, AddrOversize, MisbehaviorContext{Command: "addr"})
	}
	records := ledger.Records(id)
	if len(records) != 7 {
		t.Fatalf("infinity mode: %d records", len(records))
	}
	for _, r := range records {
		if r.Banned {
			t.Errorf("infinity mode record claims a ban: %+v", r)
		}
	}
	if records[6].Score != 140 {
		t.Errorf("infinity mode final score %d", records[6].Score)
	}

	// Disabled mode never scores, so nothing is recorded.
	ledger2 := NewLedger(0, 0)
	tr2 := NewTracker(Config{Mode: ModeDisabled, Forensics: ledger2})
	misbehave(tr2, "off:1", true, AddrOversize)
	if ledger2.Total() != 0 {
		t.Errorf("disabled mode recorded %d entries", ledger2.Total())
	}
}

func TestLedgerHandler(t *testing.T) {
	ledger := NewLedger(0, 0)
	tr := NewTracker(Config{Forensics: ledger})
	id := PeerID("10.0.0.9:4747")
	for i := 0; i < 5; i++ {
		tr.MisbehavingCtx(id, true, AddrOversize, MisbehaviorContext{Command: "addr"})
	}
	h := ledger.Handler(tr.IsBanned)

	get := func(path string) (*httptest.ResponseRecorder, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec, rec.Body.Bytes()
	}

	// The peer chain: complete, ordered, annotated with live ban state.
	rec, body := get("/debug/bans/" + string(id))
	if rec.Code != http.StatusOK {
		t.Fatalf("peer chain: HTTP %d", rec.Code)
	}
	var peerDoc peerResponse
	if err := json.Unmarshal(body, &peerDoc); err != nil {
		t.Fatal(err)
	}
	if peerDoc.Peer != id || len(peerDoc.Records) != 5 {
		t.Fatalf("peer doc: %+v", peerDoc)
	}
	for i, r := range peerDoc.Records {
		if r.Seq != uint64(i+1) || r.Score != 20*(i+1) || r.Rule != "AddrOversize" || r.Delta != 20 {
			t.Errorf("served record %d: %+v", i, r)
		}
	}
	if peerDoc.CurrentlyBanned == nil || !*peerDoc.CurrentlyBanned {
		t.Error("currently_banned not true for a banned peer")
	}

	// The index lists the peer with its final score.
	rec, body = get("/debug/bans")
	if rec.Code != http.StatusOK {
		t.Fatalf("index: HTTP %d", rec.Code)
	}
	var index indexResponse
	if err := json.Unmarshal(body, &index); err != nil {
		t.Fatal(err)
	}
	if index.Total != 5 || len(index.Peers) != 1 {
		t.Fatalf("index: %+v", index)
	}
	if p := index.Peers[0]; p.Peer != id || p.Records != 5 || p.Score != 100 || !p.Banned || p.LastRule != "AddrOversize" {
		t.Errorf("index row: %+v", p)
	}

	// Unknown peers 404 with a JSON error body.
	rec, body = get("/debug/bans/1.2.3.4:5")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown peer: HTTP %d", rec.Code)
	}
	var errDoc map[string]string
	if err := json.Unmarshal(body, &errDoc); err != nil || errDoc["error"] == "" {
		t.Errorf("unknown peer error body: %s (%v)", body, err)
	}
}

func TestLedgerHandlerEscapedPeerAndContentType(t *testing.T) {
	ledger := NewLedger(0, 0)
	tr := NewTracker(Config{Forensics: ledger})
	plain := PeerID("10.0.0.9:4747")
	v6 := PeerID("[::1]:8333")
	misbehave(tr, plain, true, AddrOversize)
	misbehave(tr, v6, true, AddrOversize)
	h := ledger.Handler(tr.IsBanned)

	get := func(path string) (*httptest.ResponseRecorder, []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type = %q, want application/json", path, ct)
		}
		return rec, rec.Body.Bytes()
	}

	// Clients that percent-escape the peer's path segment (":" → %3A, and
	// the IPv6 brackets) must resolve the same peer as the literal form.
	for _, path := range []string{
		"/debug/bans/" + string(plain),
		"/debug/bans/10.0.0.9%3A4747",
		"/debug/bans/" + string(v6),
		"/debug/bans/%5B%3A%3A1%5D%3A8333",
	} {
		rec, body := get(path)
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s: HTTP %d, want 200", path, rec.Code)
			continue
		}
		var doc peerResponse
		if err := json.Unmarshal(body, &doc); err != nil || len(doc.Records) != 1 {
			t.Errorf("GET %s: %s (%v)", path, body, err)
		}
	}

	// Unknown peers stay 404 with a JSON error body — never 200-with-empty.
	rec, body := get("/debug/bans/203.0.113.1%3A5")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown escaped peer: HTTP %d, want 404", rec.Code)
	}
	var errDoc map[string]string
	if err := json.Unmarshal(body, &errDoc); err != nil || errDoc["error"] == "" {
		t.Errorf("unknown peer error body: %s (%v)", body, err)
	}
}

func TestLedgerHandlerEvictionCounters(t *testing.T) {
	ledger := NewLedger(1, 2)
	for i := 0; i < 3; i++ {
		ledger.Append(BanRecord{Peer: "old:1", Score: i})
	}
	ledger.Append(BanRecord{Peer: "new:2"}) // evicts old:1

	rec := httptest.NewRecorder()
	ledger.Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bans", nil))
	var index indexResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &index); err != nil {
		t.Fatal(err)
	}
	if index.Evicted != 1 || index.Trimmed != 1 || index.Total != 4 {
		t.Errorf("index counters: %+v", index)
	}
	// No isBanned callback: the summary keeps the recorded ban flag.
	if len(index.Peers) != 1 || index.Peers[0].Peer != "new:2" {
		t.Errorf("index rows: %+v", index.Peers)
	}
}

func TestLedgerConcurrentAppend(t *testing.T) {
	l := NewLedger(0, 0)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			id := PeerID(fmt.Sprintf("p:%d", g))
			for i := 0; i < 100; i++ {
				l.Append(BanRecord{Peer: id, Score: i})
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if l.Total() != 800 {
		t.Errorf("total %d, want 800", l.Total())
	}
	for g := 0; g < 8; g++ {
		id := PeerID(fmt.Sprintf("p:%d", g))
		records := l.Records(id)
		if len(records) != 100 {
			t.Fatalf("%s: %d records", id, len(records))
		}
		for i, r := range records {
			if r.Seq != uint64(i+1) {
				t.Fatalf("%s record %d: seq %d", id, i, r.Seq)
			}
		}
	}
}

// TestLedgerRetainedBytesAtCaps fills a default ledger to its caps, 4,096
// peers × 256 records, through the tracker's scoring path, and bounds the
// heap it holds per retained record. A free-identity flood reaches exactly
// this state, so the bound is the ledger's worst case: 65 B per record and
// 68 MB measured. A ledger that kept each hit as a 136-byte BanRecord held
// 161 B per record and 169 MB here.
func TestLedgerRetainedBytesAtCaps(t *testing.T) {
	ledger := NewLedger(0, 0)
	tr := NewTracker(Config{Mode: ModeThresholdInfinity, Forensics: ledger})
	const records = DefaultLedgerPeers * DefaultLedgerPerPeer

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for p := 0; p < DefaultLedgerPeers; p++ {
		id := PeerID("10." + strconv.Itoa(p>>8) + "." + strconv.Itoa(p&0xff) + ".1:8333")
		for range DefaultLedgerPerPeer {
			tr.MisbehavingCtx(id, true, AddrOversize, MisbehaviorContext{Command: "addr", TraceID: 1, PayloadDigest: 0xfeedbeef, PayloadLen: 30012})
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	if st := ledger.Stats(); st.Total != records || st.EvictedPeers != 0 || st.TrimmedRecords != 0 {
		t.Fatalf("ledger stats %+v, want %d records and no loss", st, records)
	}
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / records
	t.Logf("%d records retained: %.1f B per record, %.1f MB", records, perRecord, perRecord*records/1e6)
	if perRecord > 80 {
		t.Fatalf("the ledger holds %.1f B per retained record, want at most 80", perRecord)
	}
	runtime.KeepAlive(tr)
}
