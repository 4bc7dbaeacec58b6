package peer

import (
	"io"
	"testing"

	"banscore/internal/wire"
)

// BenchmarkPeerReply is the score-free flood at the peer layer: PINGs in
// over a simnet pair, a PONG out for each, both loops running. One iteration
// is one PING answered; the flooder keeps a window of them in flight, as the
// paper's vector (a) does, so the write loop has something to batch. The
// allocation column is the gated one: answering a PING allocates nothing.
func BenchmarkPeerReply(b *testing.B) {
	server, flooder, n := connPair(b)
	defer n.Close()
	victim := New(server, true, Config{
		Net: wire.SimNet,
		OnMessage: func(p *Peer, msg wire.Message, _ int) {
			if ping, ok := msg.(*wire.MsgPing); ok {
				_ = p.QueuePong(ping.Nonce) // the window is a sixteenth of the queue's depth
			}
		},
	})
	victim.Start()
	defer func() {
		victim.Disconnect()
		victim.WaitForShutdown()
		flooder.Close()
	}()

	const window = 64
	const frame = wire.MessageHeaderSize + 8
	pings := make([]byte, 0, window*frame)
	for i := 0; i < window; i++ {
		buf, err := wire.EncodeMessage(wire.NewMsgPing(uint64(i)), wire.ProtocolVersion, wire.SimNet)
		if err != nil {
			b.Fatal(err)
		}
		pings = append(pings, buf.Bytes()...)
		buf.Release()
	}
	pongs := make([]byte, window*frame)
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= window {
		k := min(left, window) * frame
		if _, err := flooder.Write(pings[:k]); err != nil {
			b.Fatal(err)
		}
		if _, err := io.ReadFull(flooder, pongs[:k]); err != nil {
			b.Fatal(err)
		}
	}
}
