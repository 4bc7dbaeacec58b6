package node

import (
	"io"
	"testing"

	"banscore/internal/core"
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

// TestAnsweringPingAllocatesNothing is the score-free flood, one message of
// it: a PING frame in from a handshaken inbound peer, decoded, dispatched,
// its PONG queued by value, encoded and written back. With tracing off the
// victim allocates nothing for it.
func TestAnsweringPingAllocatesNothing(t *testing.T) {
	runner := make(handRunner, 1)
	env := newEnv(t, func(c *Config) { c.PeerRunner = runner })
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
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

	frame, err := wire.EncodeMessage(wire.NewMsgPing(7), wire.ProtocolVersion, wire.SimNet)
	if err != nil {
		t.Fatal(err)
	}
	ping := frame.Detach()
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
	// The claim rests on the buffer pool handing back what it was given;
	// under the race detector sync.Pool drops a quarter of it on purpose.
	lossy := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			wire.GetBuf(0).Release()
		}
	})
	if lossy > 0 {
		t.Skipf("the buffer pool is dropping buffers (%v allocations per 8 trips through it)", lossy)
	}
	if allocs := testing.AllocsPerRun(500, roundTrip); allocs != 0 {
		t.Errorf("answering a PING costs the victim %v allocations, want 0", allocs)
	}
	if string(pong[4:8]) != wire.CmdPong {
		t.Errorf("reply command %q", pong[4:16])
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
