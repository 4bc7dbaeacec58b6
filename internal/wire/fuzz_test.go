package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
)

// versionUserAgentAt is where a VERSION payload's user-agent length starts:
// version 4 + services 8 + timestamp 8 + two 26-byte addresses + nonce 8.
const versionUserAgentAt = 4 + 8 + 8 + 2*(maxNetAddressPayload-4) + 8

// fuzzVersionPayload encodes testVersion() after mutate has had its say.
func fuzzVersionPayload(tb testing.TB, mutate func(*MsgVersion)) []byte {
	tb.Helper()
	v := testVersion()
	if mutate != nil {
		mutate(v)
	}
	return encodePayload(tb, v)
}

// FuzzVersionDecodeReuse holds a reused decode target to a fresh one:
// decoding payload b into a target that has already decoded payload a
// (whatever a left behind, error or not) must classify b, and on success read
// and re-encode it, exactly as a target that has decoded nothing does — and
// must keep no slice of b. The f.Add seeds are one payload each after a valid
// one: with and without the relay byte, cut at every offset, the user agent
// at and over its cap, a non-canonical length, IPv4-mapped and all-zero
// addresses. The committed corpus (testdata/fuzz/FuzzVersionDecodeReuse)
// holds the transitions where the first decode is the interesting half.
func FuzzVersionDecodeReuse(f *testing.F) {
	valid := fuzzVersionPayload(f, nil)
	f.Add(valid, valid)
	f.Add(valid, fuzzVersionPayload(f, func(v *MsgVersion) { v.DisableRelay = true }))
	for cut := 0; cut < len(valid); cut++ {
		f.Add(valid, valid[:cut])
	}
	f.Add(valid, fuzzVersionPayload(f, func(v *MsgVersion) { v.UserAgent = string(make([]byte, MaxUserAgentLen)) }))
	overlong := append([]byte(nil), valid[:versionUserAgentAt]...)
	overlong = append(overlong, 0xfd, 0x01, 0x01) // CompactSize 257
	overlong = append(overlong, make([]byte, MaxUserAgentLen+1+4+1)...)
	f.Add(valid, overlong)
	nonCanonical := append([]byte(nil), valid[:versionUserAgentAt]...)
	nonCanonical = append(nonCanonical, 0xfd)
	nonCanonical = binary.LittleEndian.AppendUint16(nonCanonical, uint16(valid[versionUserAgentAt]))
	nonCanonical = append(nonCanonical, valid[versionUserAgentAt+1:]...)
	f.Add(valid, nonCanonical)
	f.Add(valid, fuzzVersionPayload(f, func(v *MsgVersion) {
		v.AddrMe.IP = net.IPv4(192, 0, 2, 7).To4() // encoded IPv4-mapped
		v.AddrYou.IP = nil                         // encoded as 16 zero bytes
	}))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var reused, fresh MsgVersion
		_ = reused.BtcDecode(a, ProtocolVersion)
		gotErr := reused.BtcDecode(b, ProtocolVersion)
		wantErr := fresh.BtcDecode(bytes.Clone(b), ProtocolVersion)
		if got, want := decodeClass(gotErr), decodeClass(wantErr); got != want {
			t.Fatalf("reused target: %s (%v), fresh target: %s (%v)", got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			return
		}
		// The payload is a pooled buffer its owner recycles after dispatch:
		// nothing the target holds may still point into it.
		for i := range b {
			b[i] = 0xdb
		}
		if !reflect.DeepEqual(&reused, &fresh) {
			t.Fatalf("reused target decoded\n %+v\nfresh target\n %+v", reused, fresh)
		}
		if got, want := encodePayload(t, &reused), encodePayload(t, &fresh); !bytes.Equal(got, want) {
			t.Fatalf("reused target re-encodes as %x, fresh target as %x", got, want)
		}
	})
}

// hasInputlessTx reports whether msg carries a transaction with no inputs.
// Such a transaction has no unambiguous encoding: its zero input count reads
// back as the segwit marker, so what it re-encodes to need not decode, or
// decodes to some other transaction.
func hasInputlessTx(msg Message) bool {
	var txs []*MsgTx
	switch m := msg.(type) {
	case *MsgTx:
		txs = []*MsgTx{m}
	case *MsgBlock:
		txs = m.Transactions
	case *MsgBlockTxn:
		txs = m.Txs
	case *MsgCmpctBlock:
		for _, ptx := range m.PrefilledTxs {
			txs = append(txs, ptx.Tx)
		}
	}
	for _, tx := range txs {
		if len(tx.TxIn) == 0 {
			return true
		}
	}
	return false
}

// FuzzDecodeMessage feeds whole frames to Codec.DecodeMessage, without a
// picker and with the peer's kind (reused PING, PONG and VERSION targets, each
// frame decoded twice so the second lands in a used target), and holds it to
// what the peer's read loop relies on: it does not panic; the error is a short
// read, a protocol violation, a checksum mismatch or an unknown command; a
// payload buffer comes back exactly when the payload reached a decoder, and is
// the caller's to release exactly once; the decoded message aliases nothing in
// it; and what the message re-encodes to decodes again, to the same encoding.
// Every frame is run as given and re-framed under a correct length and
// checksum, so mutations reach the decoders instead of dying at the frame
// layer. Seeds: the canonical frame of every message type, and the frames
// whose counts promise more than they carry.
func FuzzDecodeMessage(f *testing.F) {
	for _, c := range append(canonicalCases(f), lyingCountCases()...) {
		f.Add(frame(f, c.command, c.payload))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var ping MsgPing
		var pong MsgPong
		var version MsgVersion
		reuse := func(cmd string) Message {
			switch cmd {
			case CmdPing:
				return &ping
			case CmdPong:
				return &pong
			case CmdVersion:
				return &version
			}
			return nil
		}
		frames := [][]byte{raw}
		if len(raw) >= MessageHeaderSize {
			command := string(bytes.TrimRight(raw[4:4+CommandSize], "\x00"))
			frames = append(frames, frame(t, command, raw[MessageHeaderSize:]))
		}
		for _, fr := range frames {
			want := fuzzDecodeFrame(t, fr, nil)
			for i := 0; i < 2; i++ {
				if got := fuzzDecodeFrame(t, fr, reuse); !bytes.Equal(got, want) {
					t.Fatalf("decode %d into reused targets re-encodes as %x, into a fresh one as %x", i, got, want)
				}
			}
		}
	})
}

// fuzzDecodeFrame runs one frame through DecodeMessage and returns what the
// decoded message re-encodes to, nil if the frame was refused.
func fuzzDecodeFrame(t *testing.T, fr []byte, pick func(string) Message) []byte {
	var codec Codec
	msg, buf, err := codec.DecodeMessage(bytes.NewReader(fr), ProtocolVersion, MainNet, pick)
	var unknown *ErrUnknownCommand
	switch class := decodeClass(err); {
	case class == "decoded":
		if msg == nil || buf == nil {
			t.Fatalf("decoded without error: message %v, buffer %v", msg, buf)
		}
	case errors.Is(err, ErrChecksumMismatch), errors.As(err, &unknown):
		if buf != nil {
			t.Fatalf("frame-layer drop (%v) returned a payload buffer", err)
		}
	case class != "short" && class != "malformed":
		t.Fatalf("unclassifiable error: %v", err)
	}
	if err != nil {
		if msg != nil {
			t.Fatalf("error %v came with a message", err)
		}
		buf.Release()
		return nil
	}

	// The payload buffer goes back to the pool after dispatch and is
	// overwritten (by the next frame; by Release itself under -tags
	// poolpoison; here, by hand): the message must not notice.
	before := encodePayload(t, msg)
	payloadLen := buf.Len()
	for i := range buf.Bytes() {
		buf.Bytes()[i] = 0xdb
	}
	buf.Release()
	if a, b := GetBuf(payloadLen), GetBuf(payloadLen); a == b {
		t.Fatal("the payload buffer was already released when DecodeMessage returned it")
	} else {
		a.Release()
		b.Release()
	}
	after := encodePayload(t, msg)
	if !bytes.Equal(before, after) {
		t.Fatalf("%s aliases its payload: re-encodes as %x, after release as %x", msg.Command(), before, after)
	}

	if hasInputlessTx(msg) {
		return after
	}
	again, _ := makeEmptyMessage(msg.Command())
	if err := again.BtcDecode(after, ProtocolVersion); err != nil {
		t.Fatalf("%s re-encodes as %x, which does not decode: %v", msg.Command(), after, err)
	}
	if got := encodePayload(t, again); !bytes.Equal(got, after) {
		t.Fatalf("%s re-encodes as %x, which decodes to a message encoding as %x", msg.Command(), after, got)
	}
	return after
}
