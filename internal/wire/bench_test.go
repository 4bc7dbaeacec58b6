package wire

import (
	"bytes"
	"testing"

	"banscore/internal/chainhash"
)

// BenchmarkWireRoundTrip measures one full frame lifecycle on the pooled
// steady-state path: encode a ping into a pooled buffer, decode it back
// through a per-connection Codec reusing the same message value, release
// both buffers. This is the per-message cost a flood victim pays, and the
// bench gate holds it at 0 allocs/op.
func BenchmarkWireRoundTrip(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		var codec Codec
		var reuse MsgPing
		pick := func(cmd string) Message {
			if cmd == CmdPing {
				return &reuse
			}
			return nil
		}
		ping := NewMsgPing(0x1badcafe)
		var rd bytes.Reader
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf, err := EncodeMessage(ping, ProtocolVersion, MainNet)
			if err != nil {
				b.Fatal(err)
			}
			rd.Reset(buf.Bytes())
			msg, pbuf, err := codec.DecodeMessage(&rd, ProtocolVersion, MainNet, pick)
			if err != nil {
				b.Fatal(err)
			}
			if msg.(*MsgPing).Nonce != ping.Nonce {
				b.Fatal("nonce mismatch")
			}
			pbuf.Release()
			buf.Release()
		}
	})
	// The pre-pool path: a fresh frame buffer, payload slice, and message
	// per round trip. Kept as the in-run contrast for the pooled numbers.
	b.Run("alloc", func(b *testing.B) {
		ping := NewMsgPing(0x1badcafe)
		var frame bytes.Buffer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame.Reset()
			if _, err := WriteMessage(&frame, ping, ProtocolVersion, MainNet); err != nil {
				b.Fatal(err)
			}
			msg, _, err := ReadMessage(bytes.NewReader(frame.Bytes()), ProtocolVersion, MainNet)
			if err != nil {
				b.Fatal(err)
			}
			if msg.(*MsgPing).Nonce != ping.Nonce {
				b.Fatal("nonce mismatch")
			}
		}
	})
}

// BenchmarkWireEncodeInv covers a larger, varint-bearing payload so encode
// fast paths past the fixed-width helpers stay on the gate.
func BenchmarkWireEncodeInv(b *testing.B) {
	inv := NewMsgInv()
	for i := 0; i < 64; i++ {
		var h chainhash.Hash
		h[0] = byte(i)
		inv.AddInvVect(NewInvVect(InvTypeTx, &h))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := EncodeMessage(inv, ProtocolVersion, MainNet)
		if err != nil {
			b.Fatal(err)
		}
		buf.Release()
	}
}

// BenchmarkWireDecodeVersion is the frame both Sybil workloads flood with: a
// VERSION through the full DecodeMessage path (header, checksum, every field
// parsed). "fresh" decodes into a new message per frame, as a connection's
// first VERSION — the one its peer retains — must; "reused" decodes into one
// target the way the peer's picker does for every later, duplicate VERSION,
// and the bench gate holds it at 0 allocs/op.
func BenchmarkWireDecodeVersion(b *testing.B) {
	var frame bytes.Buffer
	if _, err := WriteMessage(&frame, testVersion(), ProtocolVersion, MainNet); err != nil {
		b.Fatal(err)
	}
	var reuse MsgVersion
	for _, bc := range []struct {
		name string
		pick func(string) Message
	}{
		{"fresh", nil},
		{"reused", func(string) Message { return &reuse }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var codec Codec
			var rd bytes.Reader
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(frame.Bytes())
				msg, pbuf, err := codec.DecodeMessage(&rd, ProtocolVersion, MainNet, bc.pick)
				if err != nil {
					b.Fatal(err)
				}
				if msg.(*MsgVersion).Nonce != 0xdeadbeefcafe {
					b.Fatal("nonce mismatch")
				}
				pbuf.Release()
			}
		})
	}
}

// BenchmarkWireTxHash and BenchmarkWireBlockHash cover the two encoders that
// run without a frame: a txid per relayed transaction, a header hash per
// mined nonce. Both serialise into a pooled buffer and hash it; the gate
// holds them at 0 allocs/op.
func BenchmarkWireTxHash(b *testing.B) {
	tx := testTx(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tx.TxHash() == (chainhash.Hash{}) {
			b.Fatal("zero hash")
		}
	}
}

func BenchmarkWireBlockHash(b *testing.B) {
	hdr := testHeader(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hdr.Nonce = uint32(i)
		if hdr.BlockHash() == (chainhash.Hash{}) {
			b.Fatal("zero hash")
		}
	}
}
