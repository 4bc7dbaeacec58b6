package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"banscore/internal/chainhash"
)

func testVersion() *MsgVersion {
	me := NewNetAddressIPPort(net.ParseIP("10.0.0.1"), 8333, SFNodeNetwork|SFNodeWitness)
	you := NewNetAddressIPPort(net.ParseIP("10.0.0.2"), 8333, SFNodeNetwork)
	v := NewMsgVersion(me, you, 0xdeadbeefcafe, 650000)
	v.Timestamp = time.Unix(1700000000, 0)
	return v
}

func TestWriteReadMessageRoundTrip(t *testing.T) {
	msgs := []Message{
		testVersion(),
		&MsgVerAck{},
		&MsgGetAddr{},
		&MsgMemPool{},
		&MsgSendHeaders{},
		&MsgFilterClear{},
		NewMsgPing(12345),
		NewMsgPong(12345),
		NewMsgFeeFilter(1000),
		NewMsgSendCmpct(true, 2),
	}
	for _, msg := range msgs {
		t.Run(msg.Command(), func(t *testing.T) {
			var buf bytes.Buffer
			n, err := WriteMessage(&buf, msg, ProtocolVersion, SimNet)
			if err != nil {
				t.Fatalf("WriteMessage: %v", err)
			}
			if n != buf.Len() {
				t.Errorf("WriteMessage reported %d bytes, wrote %d", n, buf.Len())
			}
			out, _, err := ReadMessage(&buf, ProtocolVersion, SimNet)
			if err != nil {
				t.Fatalf("ReadMessage: %v", err)
			}
			if out.Command() != msg.Command() {
				t.Errorf("command = %q, want %q", out.Command(), msg.Command())
			}
		})
	}
}

func TestReadMessageWrongNetwork(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, NewMsgPing(1), ProtocolVersion, MainNet); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadMessage(&buf, ProtocolVersion, SimNet)
	var mErr *MessageError
	if !errors.As(err, &mErr) {
		t.Errorf("ReadMessage wrong net = %v, want MessageError", err)
	}
}

func TestReadMessageChecksumMismatch(t *testing.T) {
	// Frame a PING with a deliberately corrupt checksum — the paper's
	// "forgoing ban score by constructing bogus messages" vector.
	payload := encodePayload(t, NewMsgPing(7))
	var buf bytes.Buffer
	bad := [4]byte{0xde, 0xad, 0xbe, 0xef}
	if _, err := WriteRawMessageChecksum(&buf, CmdPing, payload, SimNet, bad); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadMessage(&buf, ProtocolVersion, SimNet)
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("ReadMessage = %v, want ErrChecksumMismatch", err)
	}
	// The error is a typed value that formats lazily; its text is a
	// contract (logs and the journal carry it).
	want := fmt.Sprintf("command %q: payload checksum mismatch (got deadbeef, want %x)",
		CmdPing, chainhash.Checksum4(payload))
	if got := fmt.Sprint(err); got != want {
		t.Errorf("ReadMessage error text = %q, want %q", got, want)
	}
	var cErr *ChecksumError
	if !errors.As(err, &cErr) || cErr.Command != CmdPing || cErr.Got != bad {
		t.Errorf("ReadMessage error = %#v, want *ChecksumError for %q claiming %x", err, CmdPing, bad)
	}
}

// TestBogusBlockFloodReusesItsBuffer is the paper's bogus-BLOCK vector at
// the decoder: 1 MB BLOCK frames under a wrong checksum. The mismatch path
// must hand each payload buffer back to the pool, or every frame the
// attacker sends for free costs the victim a fresh megabyte.
func TestBogusBlockFloodReusesItsBuffer(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of what it is given;
	// ten trips a run keep AllocsPerRun's whole-number average from hiding it.
	if lossy := testing.AllocsPerRun(100, func() {
		for range 10 {
			GetBuf(0).Release()
		}
	}); lossy > 0 {
		t.Skipf("the buffer pool is dropping buffers (%v allocations per ten trips)", lossy)
	}
	const payload, frames = 1 << 20, 64
	var frame bytes.Buffer
	if _, err := WriteRawMessageChecksum(&frame, CmdBlock, make([]byte, payload), SimNet, [4]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	var c Codec
	r := bytes.NewReader(nil)
	decode := func() {
		r.Reset(frame.Bytes())
		if msg, buf, err := c.DecodeMessage(r, ProtocolVersion, SimNet, nil); !errors.Is(err, ErrChecksumMismatch) || msg != nil || buf != nil {
			t.Fatalf("DecodeMessage = %v, %v, %v; want only ErrChecksumMismatch", msg, buf, err)
		}
	}
	decode() // fills the pool's megabyte class

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range frames {
		decode()
	}
	runtime.ReadMemStats(&after)
	perFrame := (after.TotalAlloc - before.TotalAlloc) / frames
	t.Logf("%d bogus %d-byte BLOCK frames: %d B allocated per frame", frames, payload, perFrame)
	if perFrame > payload/64 {
		t.Fatalf("a bogus-checksum BLOCK frame allocates %d B, want at most %d: its payload buffer is not reused", perFrame, payload/64)
	}
	if allocs := testing.AllocsPerRun(frames, decode); allocs != 1 {
		t.Errorf("a bogus-checksum BLOCK frame costs %v allocations, want 1: its *ChecksumError (no decode target is made before the checksum passes)", allocs)
	}
}

// TestFrameRoundTripAllocatesNothing is the victim's send and receive
// framing on the PING flood: a message framed into a pooled buffer, alone
// (EncodeMessage) and appended behind another (AppendMessage), then decoded
// into a target the caller reuses.
func TestFrameRoundTripAllocatesNothing(t *testing.T) {
	if lossy := testing.AllocsPerRun(100, func() {
		for range 10 {
			GetBuf(0).Release()
		}
	}); lossy > 0 {
		t.Skipf("the buffer pool is dropping buffers (%v allocations per ten trips)", lossy)
	}
	ping := NewMsgPing(7)
	var target MsgPing
	pick := func(string) Message { return &target }
	var c Codec
	var r bytes.Reader
	trip := func() {
		buf, err := EncodeMessage(ping, ProtocolVersion, SimNet)
		if err != nil {
			t.Fatal(err)
		}
		if err := AppendMessage(buf, ping, ProtocolVersion, SimNet); err != nil {
			t.Fatal(err)
		}
		r.Reset(buf.Bytes())
		for range 2 {
			target.Nonce = 0
			msg, payload, err := c.DecodeMessage(&r, ProtocolVersion, SimNet, pick)
			if err != nil || msg != Message(&target) || target.Nonce != 7 {
				t.Fatalf("DecodeMessage = %v, %v; nonce %d", msg, err, target.Nonce)
			}
			payload.Release()
		}
		buf.Release()
	}
	if allocs := testing.AllocsPerRun(100, trip); allocs != 0 {
		t.Errorf("a framed PING round trip costs %v allocations, want 0", allocs)
	}
}

func TestReadMessageUnknownCommand(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3}
	if _, err := WriteRawMessage(&buf, "boguscmd", payload, SimNet); err != nil {
		t.Fatal(err)
	}
	// Append a valid message to prove the stream stays in sync after the
	// unknown payload is drained.
	if _, err := WriteMessage(&buf, NewMsgPing(9), ProtocolVersion, SimNet); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadMessage(&buf, ProtocolVersion, SimNet)
	var unknownErr *ErrUnknownCommand
	if !errors.As(err, &unknownErr) {
		t.Fatalf("ReadMessage = %v, want ErrUnknownCommand", err)
	}
	if unknownErr.Command != "boguscmd" {
		t.Errorf("unknown command = %q", unknownErr.Command)
	}
	msg, _, err := ReadMessage(&buf, ProtocolVersion, SimNet)
	if err != nil {
		t.Fatalf("stream out of sync after unknown command: %v", err)
	}
	if ping, ok := msg.(*MsgPing); !ok || ping.Nonce != 9 {
		t.Errorf("follow-up message = %#v", msg)
	}
}

func TestReadMessageOversizedHeaderLength(t *testing.T) {
	var cmd [CommandSize]byte
	copy(cmd[:], CmdPing)
	hdr := put(func(w *Buf) {
		w.putUint32(uint32(SimNet))
		w.putBytes(cmd[:])
		w.putUint32(MaxMessagePayload + 1)
		w.putUint32(0)
	})
	_, _, err := ReadMessage(bytes.NewReader(hdr), ProtocolVersion, SimNet)
	var mErr *MessageError
	if !errors.As(err, &mErr) {
		t.Errorf("ReadMessage oversize length = %v, want MessageError", err)
	}
}

func TestReadMessagePayloadExceedsPerCommandMax(t *testing.T) {
	// A 9-byte ping exceeds MsgPing's 8-byte max payload; the reader must
	// drain it and stay in sync.
	var buf bytes.Buffer
	if _, err := WriteRawMessage(&buf, CmdPing, make([]byte, 9), SimNet); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteMessage(&buf, NewMsgPong(3), ProtocolVersion, SimNet); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadMessage(&buf, ProtocolVersion, SimNet)
	var mErr *MessageError
	if !errors.As(err, &mErr) {
		t.Fatalf("oversize ping = %v, want MessageError", err)
	}
	msg, _, err := ReadMessage(&buf, ProtocolVersion, SimNet)
	if err != nil {
		t.Fatalf("stream out of sync: %v", err)
	}
	if _, ok := msg.(*MsgPong); !ok {
		t.Errorf("follow-up = %#v, want MsgPong", msg)
	}
}

func TestReadMessageTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteMessage(&buf, NewMsgPing(1), ProtocolVersion, SimNet); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	_, _, err := ReadMessage(bytes.NewReader(trunc), ProtocolVersion, SimNet)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated payload = %v, want unexpected EOF", err)
	}
}

func TestWriteMessageCommandTooLong(t *testing.T) {
	msg := &fakeMessage{command: "thiscommandiswaytoolong"}
	if _, err := WriteMessage(io.Discard, msg, ProtocolVersion, SimNet); err == nil {
		t.Error("WriteMessage accepted an over-long command")
	}
}

// fakeMessage lets framing tests provide arbitrary commands and payloads.
type fakeMessage struct {
	command string
	payload []byte
	maxLen  uint32
}

func (f *fakeMessage) BtcDecode([]byte, uint32) error { return nil }
func (f *fakeMessage) BtcEncode(w *Buf, _ uint32) error {
	w.putBytes(f.payload)
	return nil
}
func (f *fakeMessage) Command() string { return f.command }
func (f *fakeMessage) MaxPayloadLength(uint32) uint32 {
	if f.maxLen != 0 {
		return f.maxLen
	}
	return MaxMessagePayload
}

func TestWriteMessagePayloadExceedsCommandMax(t *testing.T) {
	msg := &fakeMessage{command: CmdPing, payload: make([]byte, 100), maxLen: 8}
	if _, err := WriteMessage(io.Discard, msg, ProtocolVersion, SimNet); err == nil {
		t.Error("WriteMessage accepted payload above per-command max")
	}
}

// TestAppendMessageAppends frames several messages into one buffer — small
// ones, one that moves the buffer up two size classes, a short command whose
// padding lands on recycled bytes — and holds the result to the per-message
// frames; a message that cannot be framed leaves the buffer as it was.
func TestAppendMessageAppends(t *testing.T) {
	msgs := []Message{
		NewMsgPong(1),
		&fakeMessage{command: CmdBlock, payload: bytes.Repeat([]byte{0xab}, 70_000)},
		&fakeMessage{command: CmdTx, payload: []byte{1, 2, 3}},
		testVersion(),
	}
	buf := GetBuf(0)
	defer buf.Release()
	var want []byte
	for _, msg := range msgs {
		one, err := EncodeMessage(msg, ProtocolVersion, SimNet)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, one.Bytes()...)
		one.Release()
		if err := AppendMessage(buf, msg, ProtocolVersion, SimNet); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("after %s the buffer is not the concatenation of the frames so far", msg.Command())
		}
	}
	for _, bad := range []Message{
		&fakeMessage{command: "thiscommandiswaytoolong"},
		&fakeMessage{command: CmdPing, payload: make([]byte, 100), maxLen: 8},
	} {
		if err := AppendMessage(buf, bad, ProtocolVersion, SimNet); err == nil {
			t.Errorf("AppendMessage framed %q", bad.Command())
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("a refused %q changed the buffer", bad.Command())
		}
	}
}

func TestMakeEmptyMessageAllCommands(t *testing.T) {
	commands := []string{
		CmdVersion, CmdVerAck, CmdAddr, CmdGetAddr, CmdInv, CmdGetData,
		CmdNotFound, CmdGetBlocks, CmdGetHeaders, CmdHeaders, CmdTx,
		CmdBlock, CmdMemPool, CmdPing, CmdPong, CmdReject, CmdFilterLoad,
		CmdFilterAdd, CmdFilterClear, CmdMerkleBlock, CmdSendHeaders,
		CmdFeeFilter, CmdSendCmpct, CmdCmpctBlock, CmdGetBlockTxn, CmdBlockTxn,
	}
	if len(commands) != 26 {
		t.Fatalf("expected the 26 developer-reference commands, have %d", len(commands))
	}
	for _, cmd := range commands {
		msg, err := makeEmptyMessage(cmd)
		if err != nil {
			t.Errorf("makeEmptyMessage(%q): %v", cmd, err)
			continue
		}
		if msg.Command() != cmd {
			t.Errorf("makeEmptyMessage(%q).Command() = %q", cmd, msg.Command())
		}
	}
}

func TestBitcoinNetString(t *testing.T) {
	tests := []struct {
		net  BitcoinNet
		want string
	}{
		{MainNet, "MainNet"},
		{TestNet3, "TestNet3"},
		{SimNet, "SimNet"},
		{BitcoinNet(0x12345678), "Unknown BitcoinNet (0x12345678)"},
	}
	for _, tt := range tests {
		if got := tt.net.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", uint32(tt.net), got, tt.want)
		}
	}
}

func TestServiceFlagString(t *testing.T) {
	if got := ServiceFlag(0).String(); got != "0x0" {
		t.Errorf("zero flag = %q", got)
	}
	if got := (SFNodeNetwork | SFNodeWitness).String(); got != "SFNodeNetwork|SFNodeWitness" {
		t.Errorf("combined flags = %q", got)
	}
	if got := ServiceFlag(1 << 40).String(); got != "0x10000000000" {
		t.Errorf("unknown flag = %q", got)
	}
}

func TestWriteRawMessageChecksumIsCorrectByDefault(t *testing.T) {
	payload := []byte{9, 9, 9}
	var buf bytes.Buffer
	if _, err := WriteRawMessage(&buf, CmdPing, payload, SimNet); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var want [4]byte
	copy(want[:], chainhash.DoubleHashB(payload)[:4])
	var got [4]byte
	copy(got[:], raw[20:24])
	if got != want {
		t.Errorf("checksum = %x, want %x", got, want)
	}
}

func TestReadMessageNeverPanicsOnRandomBytes(t *testing.T) {
	// Hostile-input robustness: arbitrary bytes must produce an error (or
	// a valid message), never a panic or a huge allocation.
	f := func(data []byte) bool {
		_, _, _ = ReadMessage(bytes.NewReader(data), ProtocolVersion, SimNet)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestReadMessageNeverPanicsOnCorruptedFrames(t *testing.T) {
	// Flip bytes inside otherwise-valid frames of each message type.
	msgs := []Message{
		testVersion(), NewMsgPing(1), NewMsgFeeFilter(10), NewMsgSendCmpct(true, 2),
	}
	for _, msg := range msgs {
		var buf bytes.Buffer
		if _, err := WriteMessage(&buf, msg, ProtocolVersion, SimNet); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		for i := 0; i < len(frame); i++ {
			corrupted := append([]byte(nil), frame...)
			corrupted[i] ^= 0xff
			_, _, _ = ReadMessage(bytes.NewReader(corrupted), ProtocolVersion, SimNet)
		}
	}
}
