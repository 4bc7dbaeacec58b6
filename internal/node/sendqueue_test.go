package node

import (
	"io"
	"net"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/detect"
	"banscore/internal/peer"
	"banscore/internal/telemetry"
	"banscore/internal/wire"
)

// handRunner is a peer.Runner whose peers the test pumps itself, one
// ReadStep and one WriteStep at a time, so everything the node does for a
// message happens on the test's goroutine and can be counted.
type handRunner chan *peer.Peer

func (r handRunner) Run(p *peer.Peer) { r <- p }

func writable() bool { return true }

// handPumped serves a node configured by mutate to one raw inbound client
// whose peer the test pumps by hand, completes the handshake, and returns
// the client's connection, the victim's peer and a step that runs one
// ReadStep and one WriteStep.
func handPumped(t *testing.T, mutate func(*Config)) (*testEnv, net.Conn, *peer.Peer, func()) {
	t.Helper()
	runner := make(handRunner, 1)
	env := newEnv(t, func(c *Config) {
		c.PeerRunner = runner
		if mutate != nil {
			mutate(c)
		}
	})
	conn := env.dial(t, "10.0.0.2:50001")
	t.Cleanup(func() { conn.Close() })
	p := <-runner
	step := func() {
		if !p.ReadStep() {
			t.Fatal("connection finished")
		}
		if pending, ok := p.WriteStep(writable); pending || !ok {
			t.Fatalf("WriteStep = (%v, %v)", pending, ok)
		}
	}
	send(t, conn, clientVersion(1))
	step()
	recv(t, conn) // VERSION
	recv(t, conn) // VERACK
	send(t, conn, &wire.MsgVerAck{})
	step()
	if !p.HandshakeComplete() {
		t.Fatal("handshake incomplete")
	}
	return env, conn, p, step
}

// skipIfPoolLossy skips an exact allocation count that rests on the buffer
// pool handing back what it was given: under the race detector sync.Pool
// drops a quarter of it on purpose.
func skipIfPoolLossy(t *testing.T) {
	t.Helper()
	lossy := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			wire.GetBuf(0).Release()
		}
	})
	if lossy > 0 {
		t.Skipf("the buffer pool is dropping buffers (%v allocations per 8 trips through it)", lossy)
	}
}

// encoded returns msg's frame as a plain byte slice.
func encoded(t *testing.T, msg wire.Message) []byte {
	t.Helper()
	frame, err := wire.EncodeMessage(msg, wire.ProtocolVersion, wire.SimNet)
	if err != nil {
		t.Fatal(err)
	}
	return frame.Detach()
}

// TestAnsweringPingAllocatesNothing is the score-free flood, one message of
// it: a PING frame in from a handshaken inbound peer, decoded, counted by
// the live detector, dispatched, its PONG queued by value, encoded and
// written back. With tracing off the victim allocates nothing for it.
func TestAnsweringPingAllocatesNothing(t *testing.T) {
	_, conn, _, step := handPumped(t, func(c *Config) { c.Tap = detect.NewMonitor(time.Hour) })
	ping := encoded(t, wire.NewMsgPing(7))
	pong := make([]byte, len(ping))
	roundTrip := func() {
		if _, err := conn.Write(ping); err != nil {
			t.Fatal(err)
		}
		step()
		if _, err := io.ReadFull(conn, pong); err != nil {
			t.Fatal(err)
		}
	}
	// The handshake has grown both halves of the send queue already.
	roundTrip()
	skipIfPoolLossy(t)
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Errorf("answering a PING costs the victim %v allocations, want 0", allocs)
	}
	if string(pong[4:8]) != wire.CmdPong {
		t.Errorf("reply command %q", pong[4:16])
	}
}

// TestScoringDuplicateVersionAllocatesNothing is the scored flood, one
// message of it: a duplicate VERSION decoded into the connection's reused
// target and scored against the peer with its forensic record, either
// inline or staged into a misbehavior batch that is flushed after every
// read, as the swarm engine does per visit. Below the ban the victim
// allocates nothing for it.
func TestScoringDuplicateVersionAllocatesNothing(t *testing.T) {
	for _, staged := range []bool{false, true} {
		ledger := core.NewLedger(0, 0)
		env, conn, p, step := handPumped(t, func(c *Config) { c.Forensics = ledger })
		if staged {
			mb := env.node.NewMisbehaviorBatch()
			p.SetMisbehaviorSink(mb)
			read := step
			step = func() { read(); mb.Flush() }
		}
		dup := encoded(t, clientVersion(1))
		flood := func() {
			if _, err := conn.Write(dup); err != nil {
				t.Fatal(err)
			}
			step()
		}
		flood() // makes the connection's duplicate-VERSION target
		skipIfPoolLossy(t)
		// The 50 hits, and the two before, stay below the default ban at 100.
		if allocs := testing.AllocsPerRun(50, flood); allocs != 0 {
			t.Errorf("staged=%v: a duplicate VERSION costs the victim %v allocations, want 0", staged, allocs)
		}
		if got := len(ledger.Records(p.ID())); got != 52 {
			t.Errorf("staged=%v: %d forensic records, want one per duplicate (52)", staged, got)
		}
	}
}

// gathered returns the value of the unlabelled series name.
func gathered(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("%s is not registered", name)
	return 0
}

// TestShedRepliesOnMetrics floods PINGs from a peer that never reads its
// PONGs. Every reply the full queue refuses must show on /metrics — the
// handlers discard the refusal, so nothing else records it — and must stay
// there after the peer is gone.
func TestShedRepliesOnMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := newEnv(t, func(c *Config) {
		c.Telemetry = reg
		c.PeerSendQueue = 8
	})
	conn := env.dial(t, "10.0.0.2:50001")
	handshake(t, conn)
	var p *peer.Peer
	waitFor(t, "the victim to finish the handshake", func() bool {
		p, _ = env.node.Peer(core.PeerIDFromAddr("10.0.0.2:50001"))
		return p != nil && p.HandshakeComplete()
	})
	if got := gathered(t, reg, "peer_send_queue_shed_total"); got != 0 {
		t.Fatalf("peer_send_queue_shed_total = %v before the flood", got)
	}

	// The reader has stalled: whenever eight PONGs are waiting to be
	// written, the next PING's reply is dropped.
	ping := wire.NewMsgPing(1)
	for i := 0; i < 1<<20 && p.RepliesShed() < 100; i++ {
		env.node.ProcessMessageDirect(p, ping, 8)
	}
	shed := p.RepliesShed()
	if shed < 100 {
		t.Fatalf("only %d replies shed against a stalled reader", shed)
	}
	if got := gathered(t, reg, "peer_send_queue_shed_total"); got != float64(shed) {
		t.Errorf("peer_send_queue_shed_total = %v with the peer live, want %d", got, shed)
	}
	conn.Close()
	// The count moves from the live sum to the retired one a moment after
	// the peer leaves the table.
	waitFor(t, "the retired peer's count to show", func() bool {
		in, _ := env.node.PeerCount()
		return in == 0 && gathered(t, reg, "peer_send_queue_shed_total") == float64(shed)
	})
}
