package peer

import (
	"bytes"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// frameConn is an in-memory net.Conn whose read side is a fixed byte stream:
// frames buffered ahead of time, so a ReadStep never waits and the only work
// measured is the peer's own.
type frameConn struct{ in bytes.Reader }

func (c *frameConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c *frameConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *frameConn) Close() error                     { return nil }
func (c *frameConn) LocalAddr() net.Addr              { return simnet.Addr("10.0.0.1:8333") }
func (c *frameConn) RemoteAddr() net.Addr             { return simnet.Addr("10.0.0.2:50001") }
func (c *frameConn) SetDeadline(time.Time) error      { return nil }
func (c *frameConn) SetReadDeadline(time.Time) error  { return nil }
func (c *frameConn) SetWriteDeadline(time.Time) error { return nil }

// stepRunner is the Runner of a test that calls ReadStep itself.
type stepRunner struct{}

func (stepRunner) Run(*Peer) {}

// versionHandler is the slice of node.handleVersion the reuse rule rests on:
// the first VERSION is retained through MarkVersionReceived, every later one
// is handed to dup and forgotten.
func versionHandler(dup func(*wire.MsgVersion)) MessageHandler {
	return func(p *Peer, msg wire.Message, _ int) {
		if v, ok := msg.(*wire.MsgVersion); ok && !p.MarkVersionReceived(v) {
			dup(v)
		}
	}
}

// testVersion builds the i-th VERSION of a flood; every field the decoder
// could leave behind in a reused target differs from one i to the next.
func testVersion(i int) *wire.MsgVersion {
	me := wire.NewNetAddressIPPort(net.IPv4(10, 0, byte(i), 2), uint16(50000+i), wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4(10, 1, byte(i), 1), uint16(8333+i), wire.ServiceFlag(i))
	v := wire.NewMsgVersion(me, you, uint64(1000+i), int32(i))
	v.UserAgent = fmt.Sprintf("/flood:%d/", i)
	v.DisableRelay = i%2 == 1
	return v
}

// versionFrames encodes msgs back to back and returns the stream together
// with each message as a decoder reads it back (16-byte addresses, whole
// seconds), the form a retained or dispatched VERSION must deep-equal.
func versionFrames(t *testing.T, msgs ...*wire.MsgVersion) ([]byte, []*wire.MsgVersion) {
	t.Helper()
	var stream bytes.Buffer
	decoded := make([]*wire.MsgVersion, len(msgs))
	for i, v := range msgs {
		at := stream.Len()
		if _, err := wire.WriteMessage(&stream, v, wire.ProtocolVersion, wire.SimNet); err != nil {
			t.Fatal(err)
		}
		msg, _, err := wire.ReadMessage(bytes.NewReader(stream.Bytes()[at:]), wire.ProtocolVersion, wire.SimNet)
		if err != nil {
			t.Fatal(err)
		}
		decoded[i] = msg.(*wire.MsgVersion)
	}
	return stream.Bytes(), decoded
}

// TestDuplicateVersionNeverTouchesRetainedVersion pins the rule that makes
// the duplicate-VERSION decode target safe to reuse: the VERSION a connection
// retains is never that target (pick reuses only once versionReceived is
// set), and the target owns copies of everything it holds. A hundred
// duplicates that differ in every field leave RemoteVersion exactly as the
// first VERSION read, and each duplicate is dispatched with its own fields.
// Under the poolpoison tag a decode that kept a slice of the pooled payload
// reads 0xdb here instead.
func TestDuplicateVersionNeverTouchesRetainedVersion(t *testing.T) {
	const duplicates = 100
	msgs := make([]*wire.MsgVersion, 1+duplicates)
	for i := range msgs {
		msgs[i] = testVersion(i)
	}
	stream, want := versionFrames(t, msgs...)

	conn := &frameConn{}
	conn.in.Reset(stream)
	var seen int
	p := New(conn, true, Config{
		Net:    wire.SimNet,
		Runner: stepRunner{},
		OnMessage: versionHandler(func(v *wire.MsgVersion) {
			seen++
			if !reflect.DeepEqual(v, want[seen]) {
				t.Errorf("duplicate %d dispatched as %+v, want %+v", seen, v, want[seen])
			}
		}),
	})
	p.Start()
	defer p.Disconnect()
	for i := range msgs {
		if !p.ReadStep() {
			t.Fatalf("connection finished at frame %d", i)
		}
		if got := p.RemoteVersion(); !reflect.DeepEqual(got, want[0]) {
			t.Fatalf("after frame %d RemoteVersion = %+v, want the first VERSION %+v", i, got, want[0])
		}
	}
	if seen != duplicates {
		t.Fatalf("handler saw %d duplicates, want %d", seen, duplicates)
	}
}

// TestDuplicateVersionDecodeAllocatesNothing is the flood shape itself: the
// same duplicate VERSION over and over on one connection. Framing, checksum,
// full decode into the connection's own target and dispatch cost the victim
// no allocation (7 per frame before the target was reused).
func TestDuplicateVersionDecodeAllocatesNothing(t *testing.T) {
	const runs = 200
	msgs := make([]*wire.MsgVersion, 3+runs)
	msgs[0] = testVersion(0)
	for i := 1; i < len(msgs); i++ {
		msgs[i] = testVersion(1)
	}
	stream, _ := versionFrames(t, msgs...)

	conn := &frameConn{}
	conn.in.Reset(stream)
	p := New(conn, true, Config{
		Net:       wire.SimNet,
		Runner:    stepRunner{},
		OnMessage: versionHandler(func(*wire.MsgVersion) {}),
	})
	p.Start()
	defer p.Disconnect()
	// The handshake VERSION is retained, so it allocates; the first
	// duplicate makes the target and its strings. Neither is the flood.
	for i := 0; i < 2; i++ {
		if !p.ReadStep() {
			t.Fatal("connection finished during set-up")
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if !p.ReadStep() {
			t.Fatal("connection finished mid-flood")
		}
	})
	if allocs != 0 {
		t.Fatalf("a duplicate VERSION costs %v allocations per frame, want 0", allocs)
	}
}
