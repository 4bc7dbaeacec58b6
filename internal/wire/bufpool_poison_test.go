//go:build poolpoison

package wire

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestMain fails the binary when the package's tests leave a pooled buffer
// out. Every other package gets this check from leakcheck.Main, which wire
// cannot import without an import cycle.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := Outstanding(); code == 0 && n != 0 {
		fmt.Fprintf(os.Stderr, "wire: %d pooled buffer(s) outstanding after tests completed\n", n)
		code = 1
	}
	os.Exit(code)
}

// TestOutstandingBalances holds the balance count to its contract: every
// way a buffer goes back takes the count back to where it was, a second
// return of one buffer does not count twice, and a dropped Release leaves
// exactly one buffer out.
func TestOutstandingBalances(t *testing.T) {
	for _, tc := range []struct {
		name string
		path func()
	}{
		{"GetBuf then Release", func() { GetBuf(64).Release() }},
		{"Detach then no-op Release", func() {
			b := GetBuf(64)
			b.Detach()
			b.Release()
		}},
		{"double Release", func() {
			b := GetBuf(64)
			b.Release()
			b.Release()
			// The pool now holds b twice; two GCs empty every pool so no
			// later test is handed one buffer twice.
			runtime.GC()
			runtime.GC()
		}},
		{"oversized GetBuf", func() { GetBuf(MaxMessagePayload + 1).Release() }},
		{"Write past the largest class", func() {
			b := GetBuf(MaxMessagePayload)
			b.Write([]byte{1})
			b.Release()
		}},
		{"EncodeMessage error path", func() {
			if _, err := EncodeMessage(&fakeMessage{command: "thiscommandiswaytoolong"}, ProtocolVersion, SimNet); err == nil {
				t.Error("EncodeMessage accepted an over-long command")
			}
		}},
	} {
		before := Outstanding()
		tc.path()
		if got := Outstanding() - before; got != 0 {
			t.Errorf("%s: %d buffer(s) outstanding, want 0", tc.name, got)
		}
	}

	before := Outstanding()
	b := GetBuf(64)
	if got := Outstanding() - before; got != 1 {
		t.Errorf("dropped Release: %d buffer(s) outstanding, want 1", got)
	}
	b.Release()
}

// TestPoisonOnRelease proves the use-after-Release tripwire: with the
// poolpoison tag, Release overwrites the buffer's full capacity with 0xdb,
// so any alias retained past Release reads poison instead of silently
// reading whatever payload recycled the buffer next.
func TestPoisonOnRelease(t *testing.T) {
	if !PoolPoisonEnabled {
		t.Fatal("poolpoison tag not active")
	}
	b := GetBuf(64)
	copy(b.Bytes(), bytes.Repeat([]byte{0x11}, 64))
	alias := b.Bytes()
	b.Release()
	for i, v := range alias {
		if v != 0xdb {
			t.Fatalf("alias[%d] = %#x after Release, want poison 0xdb", i, v)
		}
	}
}

// TestPoisonSparesDetached: Detach transfers ownership out of the pool, so
// the detached slice must NOT be poisoned by the (no-op) Release.
func TestPoisonSparesDetached(t *testing.T) {
	b := GetBuf(16)
	copy(b.Bytes(), "keep these bytes")
	p := b.Detach()
	b.Release()
	if string(p) != "keep these bytes" {
		t.Fatalf("detached slice poisoned: %q", p)
	}
}

// TestDecodeReleaseDoesNotCorruptNextMessage round-trips two different
// messages through one Codec under poisoning, proving the decode path
// never hands out state that aliases a released payload.
func TestDecodeReleaseDoesNotCorruptNextMessage(t *testing.T) {
	var codec Codec
	var frame bytes.Buffer
	for i := uint64(1); i <= 8; i++ {
		frame.Reset()
		if _, err := WriteMessage(&frame, NewMsgPing(i), ProtocolVersion, MainNet); err != nil {
			t.Fatal(err)
		}
		msg, buf, err := codec.DecodeMessage(bytes.NewReader(frame.Bytes()), ProtocolVersion, MainNet, nil)
		if err != nil {
			t.Fatal(err)
		}
		nonce := msg.(*MsgPing).Nonce
		buf.Release()
		if nonce != i {
			t.Fatalf("nonce %d after release, want %d (decoded state aliased the pooled payload)", nonce, i)
		}
	}
}
