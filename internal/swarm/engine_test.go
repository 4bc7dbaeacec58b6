package swarm_test

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/simnet"
	"banscore/internal/swarm"
	"banscore/internal/wire"
)

// env is a victim node on a simnet fabric whose connections are pumped by
// the event-loop engine instead of goroutine pairs — the production swarm
// wiring: the engine's shard batches are node MisbehaviorBatches closed
// over the node constructed after the engine.
type env struct {
	fabric *simnet.Network
	eng    *swarm.Engine
	node   *node.Node
	addr   string
	ports  atomic.Uint32
}

func newEnv(t *testing.T, shards int, mutate func(*node.Config)) *env {
	t.Helper()
	fabric := simnet.NewNetwork()
	e := &env{fabric: fabric, addr: "10.0.0.1:8333"}
	var n *node.Node
	e.eng = swarm.NewEngine(swarm.Config{
		Shards:   shards,
		NewBatch: func() swarm.Batcher { return n.NewMisbehaviorBatch() },
	})
	cfg := node.Config{
		PeerRunner:       e.eng,
		DisableReconnect: true,
		Dialer: func(remote string) (net.Conn, error) {
			port := 40000 + e.ports.Add(1)
			return fabric.Dial(fmt.Sprintf("10.0.0.1:%d", port), remote)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n = node.New(cfg)
	e.node = n
	l, err := fabric.Listen(e.addr)
	if err != nil {
		t.Fatal(err)
	}
	n.Serve(l)
	t.Cleanup(func() {
		e.node.Stop()
		e.eng.Stop()
		fabric.Close()
	})
	return e
}

func (e *env) dial(t *testing.T, from string) net.Conn {
	t.Helper()
	conn, err := e.fabric.Dial(from, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func send(t *testing.T, conn net.Conn, msg wire.Message) {
	t.Helper()
	if _, err := wire.WriteMessage(conn, msg, wire.ProtocolVersion, wire.SimNet); err != nil {
		t.Fatalf("send %s: %v", msg.Command(), err)
	}
}

func recv(t *testing.T, conn net.Conn) wire.Message {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	msg, _, err := wire.ReadMessage(conn, wire.ProtocolVersion, wire.SimNet)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return msg
}

func clientVersion(from string, nonce uint64) *wire.MsgVersion {
	me := wire.NewNetAddressIPPort(net.IPv4(10, 0, 0, 2), 50001, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4(10, 0, 0, 1), 8333, wire.SFNodeNetwork)
	return wire.NewMsgVersion(me, you, nonce, 0)
}

func handshake(t *testing.T, conn net.Conn, from string) {
	t.Helper()
	send(t, conn, clientVersion(from, uint64(time.Now().UnixNano())))
	sawVersion, sawVerack := false, false
	for !sawVersion || !sawVerack {
		switch recv(t, conn).(type) {
		case *wire.MsgVersion:
			sawVersion = true
		case *wire.MsgVerAck:
			sawVerack = true
		}
	}
	send(t, conn, &wire.MsgVerAck{})
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

// TestEngineHandshakeAndPing proves basic protocol correctness under
// event-loop dispatch: the full VERSION/VERACK exchange and a ping/pong
// round trip work with zero per-connection goroutines on the victim.
func TestEngineHandshakeAndPing(t *testing.T) {
	e := newEnv(t, 2, nil)
	conn := e.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn, "10.0.0.2:50001")

	send(t, conn, wire.NewMsgPing(777))
	for {
		if pong, ok := recv(t, conn).(*wire.MsgPong); ok {
			if pong.Nonce != 777 {
				t.Fatalf("pong nonce = %d, want 777", pong.Nonce)
			}
			break
		}
	}
	if got := e.eng.Admitted(); got != 1 {
		t.Fatalf("Admitted() = %d, want 1", got)
	}
}

// TestEngineBanAtExactThreshold drives the batched misbehavior path to a
// ban: each duplicate VERSION after the handshake scores 1, so the 100th
// duplicate must cross DefaultBanThreshold, ban the identifier, and
// disconnect the peer — with the hits applied via per-visit batch flushes
// rather than inline.
func TestEngineBanAtExactThreshold(t *testing.T) {
	e := newEnv(t, 1, nil)
	from := "10.0.0.2:50001"
	conn := e.dial(t, from)
	defer conn.Close()
	handshake(t, conn, from)

	dup := clientVersion(from, 42)
	for i := 0; i < core.DefaultBanThreshold; i++ {
		if _, err := wire.WriteMessage(conn, dup, wire.ProtocolVersion, wire.SimNet); err != nil {
			// The ban can land while we are still flooding; the write
			// error is the disconnect arriving early.
			break
		}
	}
	id := core.PeerIDFromAddr(from)
	waitFor(t, "ban", func() bool { return e.node.Tracker().IsBanned(id) })
	waitFor(t, "disconnect", func() bool { return e.eng.Live() == 0 })

	// A banned identifier must be refused on re-dial: the dial itself
	// fails, or the connection is already closed when the VERSION is
	// written, or it is dropped before any reply.
	if c2, err := e.fabric.Dial(from, e.addr); err == nil {
		defer c2.Close()
		if _, err := wire.WriteMessage(c2, clientVersion(from, 43), wire.ProtocolVersion, wire.SimNet); err != nil {
			return
		}
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, _, err := wire.ReadMessage(c2, wire.ProtocolVersion, wire.SimNet); err == nil {
			t.Fatal("banned peer got a protocol reply")
		}
	}
}

// TestEngineSlotReuseAfterChurn proves the arena recycles slots without
// leaking the prior occupant's identity or score: peer A earns a partial
// score and disconnects (the node forgets unbanned scores on disconnect,
// as Core does), then peer B lands in the freed slot (single shard, LIFO
// free list) and must accumulate its own score from zero — not resume
// A's, and not have A's stale wake or sink deliver hits under B's ID.
func TestEngineSlotReuseAfterChurn(t *testing.T) {
	e := newEnv(t, 1, nil)

	fromA := "10.0.0.2:50001"
	connA := e.dial(t, fromA)
	handshake(t, connA, fromA)
	dup := clientVersion(fromA, 42)
	for i := 0; i < 40; i++ {
		send(t, connA, dup)
	}
	idA := core.PeerIDFromAddr(fromA)
	waitFor(t, "peer A scored", func() bool { return e.node.Tracker().Score(idA) == 40 })
	connA.Close()
	waitFor(t, "peer A detached", func() bool { return e.eng.Live() == 0 })

	fromB := "10.0.0.3:50002"
	connB := e.dial(t, fromB)
	defer connB.Close()
	handshake(t, connB, fromB)
	waitFor(t, "peer B live", func() bool { return e.eng.Live() == 1 })

	idB := core.PeerIDFromAddr(fromB)
	if got := e.node.Tracker().Score(idB); got != 0 {
		t.Fatalf("recycled slot leaked score: peer B starts at %d, want 0", got)
	}

	// B misbehaves in the reused slot: its score must build from zero
	// under its own identifier, unaffected by A's 40 hits.
	dupB := clientVersion(fromB, 43)
	for i := 0; i < 10; i++ {
		send(t, connB, dupB)
	}
	waitFor(t, "peer B scored independently", func() bool { return e.node.Tracker().Score(idB) == 10 })
	if e.node.Tracker().IsBanned(idB) {
		t.Fatal("peer B banned at score 10: inherited prior occupant's hits")
	}

	// B must still be fully functional in the reused slot.
	send(t, connB, wire.NewMsgPing(9))
	for {
		if pong, ok := recv(t, connB).(*wire.MsgPong); ok && pong.Nonce == 9 {
			break
		}
	}
}

// TestEngineDrainingShardChurn hammers one shard with connections that
// arrive while their predecessors are mid-detach: every peer hashes onto
// the same worker, so registrations race detaches for the same slot
// indices and stale wakes from dying pipes fire against recycled slots.
// The generation guard must keep every connection independently correct.
func TestEngineDrainingShardChurn(t *testing.T) {
	e := newEnv(t, 1, nil)
	const rounds = 30
	for i := 0; i < rounds; i++ {
		from := fmt.Sprintf("10.0.%d.2:50001", i+2)
		conn := e.dial(t, from)
		handshake(t, conn, from)
		send(t, conn, wire.NewMsgPing(uint64(i)))
		// Close without draining the pong: the engine sees the close
		// edge while a write may still be pending.
		conn.Close()
	}
	waitFor(t, "all churned peers detached", func() bool { return e.eng.Live() == 0 })
	if got := e.eng.Admitted(); got != rounds {
		t.Fatalf("Admitted() = %d, want %d", got, rounds)
	}

	// The shard must still serve a fresh connection after the churn.
	conn := e.dial(t, "10.1.0.2:50001")
	defer conn.Close()
	handshake(t, conn, "10.1.0.2:50001")
}

// TestEngineFaultPlanReset proves fault injection composes with event-loop
// connections: a link plan that hard-resets after a byte budget must tear
// the peer down through the engine's close handling, not strand the slot.
func TestEngineFaultPlanReset(t *testing.T) {
	e := newEnv(t, 2, nil)
	from := "10.0.0.2:50001"
	e.fabric.SetLinkFaultsBoth("10.0.0.2", "10.0.0.1", &simnet.FaultPlan{ResetAfterBytes: 4096})

	conn := e.dial(t, from)
	defer conn.Close()
	handshake(t, conn, from)
	waitFor(t, "peer live", func() bool { return e.eng.Live() == 1 })

	// Burn through the byte budget; the reset lands mid-stream.
	for i := 0; i < 200; i++ {
		if _, err := wire.WriteMessage(conn, wire.NewMsgPing(uint64(i)), wire.ProtocolVersion, wire.SimNet); err != nil {
			break
		}
	}
	waitFor(t, "reset detached the peer", func() bool { return e.eng.Live() == 0 })
}

// TestEngineOversizedFrameRejected proves the frame gate fails fast on a
// header whose claimed payload exceeds the wire maximum instead of waiting
// forever for bytes that will never arrive.
func TestEngineOversizedFrameRejected(t *testing.T) {
	e := newEnv(t, 1, nil)
	from := "10.0.0.2:50001"
	conn := e.dial(t, from)
	defer conn.Close()
	handshake(t, conn, from)
	waitFor(t, "peer live", func() bool { return e.eng.Live() == 1 })

	// Hand-build a header claiming a payload far beyond MaxMessagePayload
	// and send only the header. The decoder must reject it from the
	// header alone and the engine must tear the connection down.
	hdr := make([]byte, wire.MessageHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(wire.SimNet))
	copy(hdr[4:16], "ping")
	binary.LittleEndian.PutUint32(hdr[16:20], wire.MaxMessagePayload+1)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "oversized frame rejected", func() bool { return e.eng.Live() == 0 })
}

// TestEngineEOFDrain proves buffered frames written before a close are
// still dispatched: the engine drains the buffer before surfacing EOF. The
// forensics ledger is the witness — the score itself is forgotten with the
// connection.
func TestEngineEOFDrain(t *testing.T) {
	ledger := core.NewLedger(0, 0)
	e := newEnv(t, 1, func(cfg *node.Config) { cfg.Forensics = ledger })
	from := "10.0.0.2:50001"
	conn := e.dial(t, from)
	handshake(t, conn, from)

	dup := clientVersion(from, 42)
	for i := 0; i < 25; i++ {
		send(t, conn, dup)
	}
	conn.Close()

	id := core.PeerIDFromAddr(from)
	waitFor(t, "pre-close frames scored", func() bool { return len(ledger.Records(id)) == 25 })
	waitFor(t, "peer detached", func() bool { return e.eng.Live() == 0 })
}

// TestEngineStagedHitsDoNotOutliveTheirConnection pins the order of a
// disconnect's Forget against the shard's end-of-iteration flush. The
// worker is parked inside a flush while a second connection writes half a
// ban's worth of duplicate VERSIONs and closes, so the next iteration finds
// the frames and the EOF together: it stages 50 hits, tears the connection
// down (Forget), and only then flushes. The flushed score must not greet
// the identifier's next session — that session starts at 0 and is banned
// by its own 100th duplicate, as on the inline path.
func TestEngineStagedHitsDoNotOutliveTheirConnection(t *testing.T) {
	ledger := core.NewLedger(0, 0)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e := newEnv(t, 1, func(cfg *node.Config) {
		cfg.Forensics = ledger
		cfg.TrackerConfig.OnApplied = func(core.PeerID, core.RuleID, int, int) {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})

	blocker, churner := "10.0.0.2:50001", "10.0.0.3:50001"
	bconn := e.dial(t, blocker)
	defer bconn.Close()
	handshake(t, bconn, blocker)
	cconn := e.dial(t, churner)
	handshake(t, cconn, churner)
	waitFor(t, "both peers live", func() bool { return e.eng.Live() == 2 })

	send(t, bconn, clientVersion(blocker, 1)) // one hit: its flush parks the worker
	<-parked
	dup := clientVersion(churner, 42)
	for i := 0; i < 50; i++ {
		send(t, cconn, dup)
	}
	cconn.Close()
	close(release)

	id := core.PeerIDFromAddr(churner)
	waitFor(t, "first session scored", func() bool { return len(ledger.Records(id)) == 50 })
	waitFor(t, "first session detached", func() bool { return e.eng.Live() == 1 })
	if got := e.node.Tracker().Score(id); got != 0 {
		t.Fatalf("score %d survived the disconnect; the next session must start at 0", got)
	}

	cconn = e.dial(t, churner)
	defer cconn.Close()
	handshake(t, cconn, churner)
	for i := 0; i < 99; i++ {
		send(t, cconn, dup)
	}
	waitFor(t, "99 hits of the second session scored", func() bool { return len(ledger.Records(id)) == 149 })
	if e.node.Tracker().IsBanned(id) {
		t.Fatal("banned before the second session's 100th duplicate")
	}
	send(t, cconn, dup)
	waitFor(t, "ban", func() bool { return e.node.Tracker().IsBanned(id) })
	if last := ledger.Records(id)[149]; !last.Banned || last.Score != 100 {
		t.Fatalf("banning record %+v, want a ban on exactly 100", last)
	}
}

// TestEngineBanSpanningTwoIterationsSurvivesEOF is the other half of that
// ordering: a ban whose hits reach the tracker over two shard iterations
// must land even when the connection dies in the second. The first 50
// duplicates are flushed (score 50) while the connection lives; the worker
// is then parked inside the blocker's flush while 50 more and the close
// arrive, so the next visit stages the second half and meets the EOF. The
// staged half must apply on top of the first before the teardown forgets
// the score: a ban on exactly 100, as on the inline path.
func TestEngineBanSpanningTwoIterationsSurvivesEOF(t *testing.T) {
	ledger := core.NewLedger(0, 0)
	blocker, churner := "10.0.0.2:50001", "10.0.0.3:50001"
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e := newEnv(t, 1, func(cfg *node.Config) {
		cfg.Forensics = ledger
		cfg.TrackerConfig.OnApplied = func(hit core.PeerID, _ core.RuleID, _, _ int) {
			if hit == core.PeerIDFromAddr(blocker) {
				once.Do(func() {
					close(parked)
					<-release
				})
			}
		}
	})

	bconn := e.dial(t, blocker)
	defer bconn.Close()
	handshake(t, bconn, blocker)
	cconn := e.dial(t, churner)
	handshake(t, cconn, churner)
	waitFor(t, "both peers live", func() bool { return e.eng.Live() == 2 })

	id := core.PeerIDFromAddr(churner)
	dup := clientVersion(churner, 42)
	for i := 0; i < 50; i++ {
		send(t, cconn, dup)
	}
	waitFor(t, "first half flushed", func() bool { return e.node.Tracker().Score(id) == 50 })

	send(t, bconn, clientVersion(blocker, 1)) // one hit: its flush parks the worker
	<-parked
	for i := 0; i < 50; i++ {
		send(t, cconn, dup)
	}
	cconn.Close()
	close(release)

	waitFor(t, "ban", func() bool { return e.node.Tracker().IsBanned(id) })
	recs := ledger.Records(id)
	if last := recs[len(recs)-1]; len(recs) != 100 || !last.Banned || last.Score != 100 {
		t.Fatalf("%d records ending in %+v, want 100 ending in a ban on exactly 100", len(recs), last)
	}
}

// TestEngineStagingBoundedByReadBudget pins what sizes the misbehavior
// batch: the engine's read budget, not the number of connections an
// attacker opens. The worker is parked inside the blocker's flush while 256
// identities connect and buffer their handshake and 101 duplicate VERSIONs
// each, so the shard's first pass after the release finds every one of them
// ready with a full budget of frames. Flushing once per pass would stage
// the whole pass (256 × 62 hits) before applying any; flushing per visit
// never holds more than one visit's worth. Either way every identity must
// be banned by exactly its 100th duplicate.
func TestEngineStagingBoundedByReadBudget(t *testing.T) {
	const sybils = 256
	ledger := core.NewLedger(0, 0)
	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e := newEnv(t, 1, func(cfg *node.Config) {
		cfg.Forensics = ledger
		cfg.MaxInbound = sybils + 8
		cfg.TrackerConfig.OnApplied = func(core.PeerID, core.RuleID, int, int) {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	})

	blocker := "10.0.0.2:50001"
	bconn := e.dial(t, blocker)
	defer bconn.Close()
	handshake(t, bconn, blocker)
	send(t, bconn, clientVersion(blocker, 1)) // one hit: its flush parks the worker
	<-parked

	identity := func(i int) string { return fmt.Sprintf("10.7.%d.2:50001", i) }
	for i := 0; i < sybils; i++ {
		from := identity(i)
		var conn net.Conn
		waitFor(t, "dial past a full accept backlog", func() bool {
			var err error
			conn, err = e.fabric.Dial(from, e.addr)
			return err == nil
		})
		defer conn.Close()
		version := clientVersion(from, 42)
		send(t, conn, version)
		send(t, conn, &wire.MsgVerAck{})
		for k := 0; k < core.DefaultBanThreshold+1; k++ {
			send(t, conn, version)
		}
	}
	waitFor(t, "every identity registered", func() bool { return e.eng.Admitted() == sybils+1 })
	close(release)

	const hits = sybils*(core.DefaultBanThreshold+1) + 1 // the blocker's one included
	waitFor(t, "every staged hit flushed", func() bool { return e.eng.Stats().HitsFlushed == hits })
	st := e.eng.Stats()
	if st.MaxStaged > swarm.DefaultReadBudget {
		t.Errorf("%d hits staged at once; the read budget (%d) must bound the batch, not the %d connections", st.MaxStaged, swarm.DefaultReadBudget, sybils)
	}
	if st.MaxStaged < 2 || st.Flushes < 2*sybils || st.BudgetExhausted < sybils || st.Visits < st.Flushes {
		t.Errorf("implausible engine stats for %d flooding identities: %+v", sybils, st)
	}
	for i := 0; i < sybils; i++ {
		id := core.PeerIDFromAddr(identity(i))
		if !e.node.Tracker().IsBanned(id) {
			t.Fatalf("identity %d not banned", i)
		}
		recs := ledger.Records(id)
		if len(recs) != core.DefaultBanThreshold+1 {
			t.Fatalf("identity %d: %d records, want %d", i, len(recs), core.DefaultBanThreshold+1)
		}
		for k, rec := range recs {
			if want := k == core.DefaultBanThreshold-1; rec.Banned != want || (want && rec.Score != core.DefaultBanThreshold) {
				t.Fatalf("identity %d record %d: %+v; want one ban, on exactly %d at the %dth hit", i, k, rec, core.DefaultBanThreshold, core.DefaultBanThreshold)
			}
		}
	}
}
