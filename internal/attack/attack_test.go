package attack

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/mempool"
	"banscore/internal/node"
	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// env hosts a victim node on a simnet fabric.
type env struct {
	fabric *simnet.Network
	victim *node.Node
	target string
	ports  atomic.Uint32
}

func newEnv(t *testing.T, mutate func(*node.Config)) *env {
	t.Helper()
	fabric := simnet.NewNetwork()
	e := &env{fabric: fabric, target: "10.0.0.1:8333"}
	cfg := node.Config{
		Dialer: func(remote string) (net.Conn, error) {
			port := 40000 + e.ports.Add(1)
			return fabric.Dial(fmt.Sprintf("10.0.0.1:%d", port), remote)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	e.victim = node.New(cfg)
	l, err := fabric.Listen(e.target)
	if err != nil {
		t.Fatal(err)
	}
	e.victim.Serve(l)
	t.Cleanup(func() {
		e.victim.Stop()
		fabric.Close()
	})
	return e
}

func (e *env) dialer() Dialer {
	return func(from, to string) (net.Conn, error) { return e.fabric.Dial(from, to) }
}

func (e *env) session(t *testing.T, from string) *Session {
	t.Helper()
	conn, err := e.fabric.Dial(from, e.target)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(conn, wire.SimNet)
	if err := s.Handshake(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestSessionHandshake(t *testing.T) {
	e := newEnv(t, nil)
	s := e.session(t, "10.0.0.66:50001")
	defer s.Close()
	if s.Sent() < 2 { // version + verack
		t.Errorf("Sent = %d", s.Sent())
	}
	// A PING round-trip proves the session is live.
	if err := s.Send(wire.NewMsgPing(9)); err != nil {
		t.Fatal(err)
	}
	msg, err := s.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if pong, ok := msg.(*wire.MsgPong); !ok || pong.Nonce != 9 {
		t.Errorf("reply = %#v", msg)
	}
}

func TestPingFloodIsScoreFree(t *testing.T) {
	// BM-DoS vector 1: PING has no ban rule; a thousand of them leave
	// the attacker's score at zero.
	e := newEnv(t, nil)
	s := e.session(t, "10.0.0.66:50001")
	defer s.Close()
	forge := NewForge(blockchain.SimNetParams())
	res := Flood(s, func() wire.Message { return forge.Ping() }, FloodOptions{Count: 1000})
	if res.Err != nil || res.Sent != 1000 {
		t.Fatalf("flood = %+v", res)
	}
	waitFor(t, "messages processed", func() bool {
		return e.victim.Stats().MessagesProcessed >= 1000
	})
	if got := e.victim.Tracker().Score(core.PeerIDFromAddr("10.0.0.66:50001")); got != 0 {
		t.Errorf("score after ping flood = %d, want 0", got)
	}
	if res.Rate() <= 0 {
		t.Error("rate not measured")
	}
}

func TestBogusChecksumBlockFloodBypassesBanScore(t *testing.T) {
	// BM-DoS vector 2: invalid-PoW BLOCK with corrupt checksum — dropped
	// at the transport layer, never scored.
	e := newEnv(t, nil)
	s := e.session(t, "10.0.0.66:50001")
	defer s.Close()
	forge := NewForge(blockchain.SimNetParams())
	payload := EncodeBlock(forge.BogusBlock(2))
	res := FloodRaw(s, wire.CmdBlock, payload, FloodOptions{Count: 200})
	if res.Err != nil || res.Sent != 200 {
		t.Fatalf("flood = %+v", res)
	}
	// Prove the connection survived and nothing was scored.
	if err := s.Send(wire.NewMsgPing(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(2 * time.Second); err != nil {
		t.Fatalf("connection dead after bogus flood: %v", err)
	}
	if got := e.victim.Tracker().Score(core.PeerIDFromAddr("10.0.0.66:50001")); got != 0 {
		t.Errorf("score = %d, want 0", got)
	}
}

func TestCorrectChecksumBogusBlockBansImmediately(t *testing.T) {
	// The contrast case: same bogus block with a CORRECT checksum reaches
	// validation and triggers the 100-point invalid-block rule.
	e := newEnv(t, nil)
	s := e.session(t, "10.0.0.66:50001")
	defer s.Close()
	forge := NewForge(blockchain.SimNetParams())
	if err := s.SendRaw(wire.CmdBlock, EncodeBlock(forge.BogusBlock(0))); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "ban", func() bool {
		// BogusBlock has an unknown prev (+10 prev-missing)... but its
		// PoW IS valid at simnet difficulty, so the score is 10.
		return e.victim.Tracker().Score(core.PeerIDFromAddr("10.0.0.66:50001")) == 10
	})
}

func TestSerialSybilDefamationLoop(t *testing.T) {
	e := newEnv(t, nil)
	mgr := NewSybilManager("10.0.0.66", e.target, wire.SimNet, e.dialer())
	results, err := mgr.RunSerial(3, func() wire.Message {
		// Fresh VERSION each time: duplicate VERSION scores +1.
		me := wire.NewNetAddressIPPort(net.IPv4zero, 0, wire.SFNodeNetwork)
		you := wire.NewNetAddressIPPort(net.IPv4zero, 0, 0)
		return wire.NewMsgVersion(me, you, 1, 0)
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	banlist := e.victim.Tracker().BanList()
	for i, r := range results {
		if r.MessagesSent < 100 {
			t.Errorf("identifier %d sent %d messages, want >= 100", i, r.MessagesSent)
		}
		if r.TimeToBan <= 0 || r.ConnectLatency <= 0 {
			t.Errorf("identifier %d timing = %+v", i, r)
		}
		if !banlist.IsBanned(core.PeerIDFromAddr(r.Identifier)) {
			t.Errorf("identifier %s not banned", r.Identifier)
		}
	}
	if results[0].Identifier == results[1].Identifier {
		t.Error("serial identifiers not distinct")
	}
	if got := banlist.BannedPortCountForIP(net.ParseIP("10.0.0.66")); got != 3 {
		t.Errorf("banned ports for attacker IP = %d, want 3", got)
	}
}

func TestParallelSybilFlood(t *testing.T) {
	e := newEnv(t, nil)
	mgr := NewSybilManager("10.0.0.66", e.target, wire.SimNet, e.dialer())
	forge := NewForge(blockchain.SimNetParams())
	err := mgr.RunParallel(5, func(s *Session) {
		var last uint64
		Flood(s, func() wire.Message {
			ping := forge.Ping()
			last = ping.Nonce
			return ping
		}, FloodOptions{Count: 100})
		// RunParallel closes the session when this returns, and a close right
		// after the last write takes the PINGs still buffered down with it.
		if err := s.AwaitPong(last, 5*time.Second); err != nil {
			t.Errorf("last PONG: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "all pings processed", func() bool {
		return e.victim.Stats().MessagesProcessed >= 5*100
	})
}

func TestPreConnectionDefamation(t *testing.T) {
	e := newEnv(t, nil)
	const innocent = "10.0.0.77:50001"

	res, err := PreConnectionDefame(e.dialer(), innocent, e.target, wire.SimNet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent < 100 {
		t.Errorf("sent %d misbehaving messages, want >= 100", res.MessagesSent)
	}
	if !e.victim.Tracker().IsBanned(core.PeerIDFromAddr(innocent)) {
		t.Fatal("innocent identifier not banned")
	}

	// The real innocent peer now cannot establish a session.
	conn, err := e.fabric.Dial(innocent, e.target)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(conn, wire.SimNet)
	if err := s.Handshake(500 * time.Millisecond); err == nil {
		t.Error("banned innocent completed a handshake")
	}
	s.Close()
}

func TestPostConnectionDefamation(t *testing.T) {
	e := newEnv(t, nil)
	const innocent = "10.0.0.88:50001"

	// Arm the eavesdropper BEFORE the innocent connects (same-network
	// promiscuous capture sees the stream from its start).
	defamer := NewPostConnectionDefamer(e.fabric, innocent, e.target, wire.SimNet)
	defer defamer.Close()

	// The innocent peer connects and handshakes normally.
	innocentSession := e.session(t, innocent)
	defer innocentSession.Close()
	waitFor(t, "innocent connected", func() bool {
		in, _ := e.victim.PeerCount()
		return in == 1
	})

	// Algorithm 1: inject spoofed duplicate VERSIONs until the ban.
	res, err := defamer.Run(150, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "innocent banned", func() bool {
		return e.victim.Tracker().IsBanned(core.PeerIDFromAddr(innocent))
	})
	if res.MessagesSent < 100 {
		t.Errorf("injected %d, want >= 100", res.MessagesSent)
	}
	// The innocent's connection was torn down by its own victim.
	waitFor(t, "innocent disconnected", func() bool {
		in, _ := e.victim.PeerCount()
		return in == 0
	})
}

func TestDefamationDefeatedByGoodScoreMode(t *testing.T) {
	e := newEnv(t, func(cfg *node.Config) {
		cfg.TrackerConfig = core.Config{Mode: core.ModeGoodScore}
	})
	// With banning replaced by good-score reputation the Defamation
	// primitive loses its teeth: send 300 duplicate VERSIONs (3× the old
	// threshold) and verify the peer is never banned nor disconnected.
	s := e.session(t, "10.0.0.78:50001")
	defer s.Close()
	for i := 0; i < 300; i++ {
		if err := s.Send(s.Version()); err != nil {
			t.Fatalf("send %d failed: %v (peer should never be banned)", i, err)
		}
	}
	if e.victim.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.78:50001")) {
		t.Error("good-score mode banned a peer")
	}
}

func TestForgeMessagesTriggerIntendedRules(t *testing.T) {
	forge := NewForge(blockchain.SimNetParams())
	tests := []struct {
		name string
		msg  wire.Message
		want core.RuleID
	}{
		{"oversize addr", forge.OversizeAddr(), core.AddrOversize},
		{"oversize inv", forge.OversizeInv(), core.InvOversize},
		{"oversize getdata", forge.OversizeGetData(), core.GetDataOversize},
		{"oversize headers", forge.OversizeHeaders(), core.HeadersOversize},
		{"non-continuous headers", forge.NonContinuousHeaders(), core.HeadersNonContinuous},
		{"oversize filterload", forge.OversizeFilterLoad(), core.FilterLoadOversize},
		{"oversize filteradd", forge.OversizeFilterAdd(), core.FilterAddOversize},
		{"invalid segwit tx", forge.InvalidSegWitTx(), core.TxInvalidSegWit},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := newEnv(t, nil)
			s := e.session(t, "10.0.0.66:50001")
			defer s.Close()
			if err := s.Send(tt.msg); err != nil {
				t.Fatal(err)
			}
			rule, _ := core.LookupRule(tt.want)
			score, _ := rule.ScoreIn(core.V0_20_0)
			waitFor(t, "rule fires", func() bool {
				tr := e.victim.Tracker()
				id := core.PeerIDFromAddr("10.0.0.66:50001")
				if score >= 100 {
					return tr.IsBanned(id)
				}
				return tr.Score(id) == score
			})
		})
	}
}

func TestForgeSegWitTxActuallyInvalid(t *testing.T) {
	forge := NewForge(blockchain.SimNetParams())
	if err := mempool.CheckSegWitRules(forge.InvalidSegWitTx()); err == nil {
		t.Error("forged segwit tx passes the rules")
	}
	if err := mempool.CheckSegWitRules(forge.ValidTx()); err != nil {
		t.Errorf("valid tx fails segwit rules: %v", err)
	}
}

func TestForgeBogusBlockFailsHardNetPoW(t *testing.T) {
	params := blockchain.HardNetParams()
	forge := NewForge(params)
	block := forge.BogusBlock(1)
	hash := block.BlockHash()
	if err := blockchain.CheckProofOfWork(&hash, block.Header.Bits, params.PowLimit); err == nil {
		t.Error("bogus block satisfies hardnet PoW (astronomically unlikely)")
	}
}

func TestFullIPDefamationEstimateMatchesPaper(t *testing.T) {
	// Paper: 16384 · (0.1 + 0.2) s ≈ 81.92 minutes.
	got := FullIPDefamationEstimate(100*time.Millisecond, 200*time.Millisecond)
	want := time.Duration(16384) * 300 * time.Millisecond
	if got != want {
		t.Errorf("estimate = %v, want %v", got, want)
	}
	if mins := got.Minutes(); mins < 81.9 || mins > 82.0 {
		t.Errorf("estimate = %.2f min, want ≈ 81.92", mins)
	}
	if EphemeralPortCount != 16384 {
		t.Errorf("ephemeral port count = %d", EphemeralPortCount)
	}
}

func TestFloodDurationBudget(t *testing.T) {
	e := newEnv(t, nil)
	s := e.session(t, "10.0.0.66:50001")
	defer s.Close()
	forge := NewForge(blockchain.SimNetParams())
	res := Flood(s, func() wire.Message { return forge.Ping() },
		FloodOptions{Duration: 30 * time.Millisecond, Delay: time.Millisecond})
	if res.Err != nil {
		t.Fatalf("flood err: %v", res.Err)
	}
	if res.Sent == 0 || res.Sent > 100 {
		t.Errorf("sent = %d over 30ms at 1ms delay", res.Sent)
	}
}

func TestFloodStopChannel(t *testing.T) {
	e := newEnv(t, nil)
	s := e.session(t, "10.0.0.66:50001")
	defer s.Close()
	forge := NewForge(blockchain.SimNetParams())
	stop := make(chan struct{})
	done := make(chan FloodResult, 1)
	go func() {
		done <- Flood(s, func() wire.Message { return forge.Ping() },
			FloodOptions{Delay: time.Millisecond, Stop: stop})
	}()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case res := <-done:
		if res.Sent == 0 {
			t.Error("nothing sent before stop")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flood did not stop")
	}
}

func TestSybilExhaustion(t *testing.T) {
	e := newEnv(t, nil)
	mgr := NewSybilManager("10.0.0.66", e.target, wire.SimNet, e.dialer())
	mgr.nextPort = EphemeralPortEnd + 1 // simulate exhaustion
	if _, err := mgr.NextSession(time.Second); err == nil {
		t.Error("exhausted manager minted a session")
	}
}
