package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"banscore/internal/attack"
	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/simnet"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// httpJSON performs an in-process request against the cluster's telemetry
// handler and decodes the JSON response into out.
func httpJSON(t *testing.T, cl *Cluster, path string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	cl.Server.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
	}
	return rec.Code
}

// runPacedAttacker drives oversize-ADDR connections against the victim,
// pacing on the forensic ledger: the next message goes out only after the
// previous one has landed a record (or a grace period expires). Pacing is
// what makes the reset injection deterministic — an unpaced attacker can
// stuff the socket buffer past the reset budget before the victim has
// parsed a single message, and the reset discards everything unread.
// The ledger is the right pacing signal because it is monotonic: tracker
// scores reset on every disconnect, the audit trail never does.
func runPacedAttacker(cl *Cluster, quit chan struct{}, done chan struct{}) {
	defer close(done)
	forge := attack.NewForge(blockchain.SimNetParams())
	id := core.PeerIDFromAddr(attackerAddr)
	stopping := func() bool {
		select {
		case <-quit:
			return true
		default:
			return cl.Victim.Tracker().IsBanned(id)
		}
	}
	for !stopping() {
		conn, err := cl.Fabric.Dial(attackerAddr, VictimAddr)
		if err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		attackPaced(cl, conn, forge, id, stopping)
		conn.Close()
		// Let the victim process the disconnect (Forget) before the next
		// identity-reusing connection, so every chain restarts at 20.
		time.Sleep(50 * time.Millisecond)
	}
}

func attackPaced(cl *Cluster, conn net.Conn, forge *attack.Forge, id core.PeerID, stopping func() bool) {
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	me := wire.NewNetAddressIPPort(net.IPv4(10, 0, 9, 9), 4747, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4(10, 0, 0, 1), 8333, wire.SFNodeNetwork)
	v := wire.NewMsgVersion(me, you, 0xbad000+attackerNonce.Add(1), 0)
	if _, err := wire.WriteMessage(conn, v, wire.ProtocolVersion, wire.SimNet); err != nil {
		return
	}
	for {
		msg, _, err := wire.ReadMessage(conn, wire.ProtocolVersion, wire.SimNet)
		if err != nil {
			return
		}
		if _, ok := msg.(*wire.MsgVerAck); ok {
			break
		}
	}
	if _, err := wire.WriteMessage(conn, &wire.MsgVerAck{}, wire.ProtocolVersion, wire.SimNet); err != nil {
		return
	}
	for i := 0; i < 8 && !stopping(); i++ {
		before := len(cl.Forensics.Records(id))
		if _, err := wire.WriteMessage(conn, forge.OversizeAddr(), wire.ProtocolVersion, wire.SimNet); err != nil {
			return
		}
		for j := 0; j < 200 && !stopping(); j++ {
			if len(cl.Forensics.Records(id)) > before {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestForensicsUnderChaos is the audit-trail proof: an attacker hammers the
// victim with oversize ADDR bursts over a link that hard-resets every
// connection mid-burst, so score chains are repeatedly severed (disconnect
// resets the tracker score) before the link heals and the ban finally lands.
// The forensic ledger must hold the complete record — the partial chains AND
// the exact five-step 20/40/60/80/100 sequence that banned the attacker —
// served over /debug/bans/<peer>, with every record carrying a trace ID that
// resolves to lifecycle spans and a Chrome trace export that parses.
func TestForensicsUnderChaos(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cl, err := NewCluster(Config{HonestPeers: 2, Options: node.Options{Trace: &trace.Config{SampleN: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.ConnectAll(); err != nil {
		t.Fatal(err)
	}

	// Size the reset budget off one framed oversize ADDR: each attack
	// connection completes its handshake, lands two scored messages, and is
	// reset during the third — the ban threshold (five messages) is
	// unreachable until the link heals.
	forge := attack.NewForge(blockchain.SimNetParams())
	msgBytes, err := wire.WriteMessage(io.Discard, forge.OversizeAddr(), wire.ProtocolVersion, wire.SimNet)
	if err != nil {
		t.Fatal(err)
	}
	cl.Fabric.SetLinkFaultsBoth("10.0.9.9", "10.0.0.1", &simnet.FaultPlan{
		ResetAfterBytes: int64(2*msgBytes + msgBytes/2 + 2048), Seed: 0xfacade,
	})

	id := core.PeerIDFromAddr(attackerAddr)
	attackQuit, attackDone := make(chan struct{}), make(chan struct{})
	go runPacedAttacker(cl, attackQuit, attackDone)
	defer func() { close(attackQuit); <-attackDone }()

	// Generous deadlines: under `go test ./...` this package shares the
	// host with the experiment suite, and the attacker loop crawls when
	// starved of CPU.
	waitFor(t, 120*time.Second, "score chains severed by injected resets", func() bool {
		fs := cl.Fabric.FaultStats()
		return fs.ConnsReset >= 2 && len(cl.Forensics.Records(id)) >= 2 &&
			!cl.Victim.Tracker().IsBanned(id)
	})

	// Heal the link: the next connection survives all five messages.
	cl.Fabric.SetLinkFaultsBoth("10.0.9.9", "10.0.0.1", nil)
	waitFor(t, 120*time.Second, "attacker banned after heal", func() bool {
		return cl.Victim.Tracker().IsBanned(id)
	})
	<-attackDone

	// --- The ledger holds the full history: severed partial chains, then
	// the exact rule sequence that banned the attacker.
	records := cl.Forensics.Records(id)
	if len(records) < 7 {
		t.Fatalf("ledger holds %d records, want >=7 (severed chains + banning chain)", len(records))
	}
	for i, r := range records {
		if r.RuleID != core.AddrOversize || r.Rule != "AddrOversize" {
			t.Errorf("record %d: rule %s (%d), want AddrOversize", i, r.Rule, r.RuleID)
		}
		if r.Delta != 20 {
			t.Errorf("record %d: delta %d, want 20", i, r.Delta)
		}
		if r.Command != "addr" {
			t.Errorf("record %d: command %q, want addr", i, r.Command)
		}
		if r.TraceID == 0 {
			t.Errorf("record %d: no trace ID at 1-in-1 sampling", i)
		}
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		// Scores accumulate in 20s within a connection and reset to 20
		// when a severed connection forgot the peer.
		if i > 0 && r.Score != records[i-1].Score+20 && r.Score != 20 {
			t.Errorf("record %d: score %d after %d", i, r.Score, records[i-1].Score)
		}
		if r.Banned != (i == len(records)-1) {
			t.Errorf("record %d: banned=%v", i, r.Banned)
		}
	}
	for i, want := range []int{20, 40, 60, 80, 100} {
		if got := records[len(records)-5+i].Score; got != want {
			t.Errorf("banning chain step %d: score %d, want %d", i, got, want)
		}
	}

	// --- /debug/bans/<peer> serves that chain.
	var peerDoc struct {
		Peer            string           `json:"peer"`
		CurrentlyBanned *bool            `json:"currently_banned"`
		Records         []core.BanRecord `json:"records"`
	}
	if code := httpJSON(t, cl, "/debug/bans/"+attackerAddr, &peerDoc); code != http.StatusOK {
		t.Fatalf("/debug/bans/%s: HTTP %d", attackerAddr, code)
	}
	if peerDoc.Peer != attackerAddr || len(peerDoc.Records) != len(records) {
		t.Errorf("/debug/bans/<peer>: peer=%q records=%d, want %q/%d",
			peerDoc.Peer, len(peerDoc.Records), attackerAddr, len(records))
	}
	if peerDoc.CurrentlyBanned == nil || !*peerDoc.CurrentlyBanned {
		t.Error("/debug/bans/<peer>: currently_banned not true")
	}

	var index struct {
		Total uint64 `json:"total"`
		Peers []struct {
			Peer   string `json:"peer"`
			Banned bool   `json:"banned"`
		} `json:"peers"`
	}
	if code := httpJSON(t, cl, "/debug/bans", &index); code != http.StatusOK {
		t.Fatalf("/debug/bans: HTTP %d", code)
	}
	found := false
	for _, p := range index.Peers {
		found = found || (p.Peer == attackerAddr && p.Banned)
	}
	if !found || index.Total < uint64(len(records)) {
		t.Errorf("/debug/bans index missing banned attacker: %+v", index)
	}

	var errDoc map[string]any
	if code := httpJSON(t, cl, "/debug/bans/10.9.9.9:1", &errDoc); code != http.StatusNotFound {
		t.Errorf("/debug/bans/<unknown>: HTTP %d, want 404", code)
	}

	// --- Every ledger record's trace ID resolves to lifecycle spans: the
	// banning blow is traceable wire decode → dispatch → misbehavior.
	banTrace := records[len(records)-1].TraceID
	var q struct {
		Enabled bool         `json:"enabled"`
		Spans   []trace.Span `json:"spans"`
	}
	if code := httpJSON(t, cl, fmt.Sprintf("/debug/trace?trace=%d", banTrace), &q); code != http.StatusOK {
		t.Fatalf("/debug/trace: HTTP %d", code)
	}
	stages := map[trace.Stage]bool{}
	for _, sp := range q.Spans {
		if sp.TraceID != banTrace {
			t.Errorf("trace filter leaked span %+v", sp)
		}
		stages[sp.Stage] = true
	}
	for _, want := range []trace.Stage{trace.StageWireDecode, trace.StageHandle, trace.StageMisbehave} {
		if !stages[want] {
			t.Errorf("banning trace %d missing %s span (got %v)", banTrace, want, stages)
		}
	}

	// --- /debug/trace/export is valid Chrome trace-event JSON.
	rec := httptest.NewRecorder()
	cl.Server.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace/export", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace/export: HTTP %d", rec.Code)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace export: unit=%q events=%d", doc.DisplayTimeUnit, len(doc.TraceEvents))
	}
	sawMisbehave := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Fatalf("trace export: unexpected phase %q", ev.Ph)
		}
		if ev.Ph == "X" && (ev.Ts < 0 || ev.Pid != 1) {
			t.Fatalf("trace export: bad complete event %+v", ev)
		}
		if ev.Name == string(trace.StageMisbehave) && ev.Args["rule"] == "AddrOversize" {
			sawMisbehave = true
		}
	}
	if !sawMisbehave {
		t.Error("trace export holds no misbehave event for AddrOversize")
	}

	// Bans stayed surgical through the chaos, and nothing leaked.
	if got := cl.Victim.Tracker().BanList().Count(); got != 1 {
		t.Errorf("ban list holds %d identifiers, want 1", got)
	}
	cl.Close()
	if n, ok := WaitGoroutines(baseline+3, 10*time.Second); !ok {
		t.Errorf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
}
