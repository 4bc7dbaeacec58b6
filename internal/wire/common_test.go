package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

// put runs one encode helper against a fresh pooled buffer and returns what
// it appended.
func put(f func(w *Buf)) []byte {
	w := GetBuf(0)
	defer w.Release()
	f(w)
	return bytes.Clone(w.Bytes())
}

func TestVarIntRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		in   uint64
		size int
	}{
		{"zero", 0, 1},
		{"single byte max", 0xfc, 1},
		{"two byte min", 0xfd, 3},
		{"two byte max", 0xffff, 3},
		{"four byte min", 0x10000, 5},
		{"four byte max", 0xffffffff, 5},
		{"eight byte min", 0x100000000, 9},
		{"eight byte max", 0xffffffffffffffff, 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			enc := put(func(w *Buf) { w.putVarInt(tt.in) })
			if len(enc) != tt.size {
				t.Errorf("encoded size = %d, want %d", len(enc), tt.size)
			}
			if got := VarIntSerializeSize(tt.in); got != tt.size {
				t.Errorf("VarIntSerializeSize = %d, want %d", got, tt.size)
			}
			d := decoder{b: enc}
			if out := d.varInt(); d.err != nil || out != tt.in {
				t.Errorf("round trip = %d, %v, want %d", out, d.err, tt.in)
			}
		})
	}
}

func TestVarIntNonCanonical(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
	}{
		{"0xfd encoding of 0", []byte{0xfd, 0x00, 0x00}},
		{"0xfd encoding of 0xfc", []byte{0xfd, 0xfc, 0x00}},
		{"0xfe encoding of 0xffff", []byte{0xfe, 0xff, 0xff, 0x00, 0x00}},
		{"0xff encoding of 0xffffffff", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := decoder{b: tt.in}
			d.varInt()
			var mErr *MessageError
			if !errors.As(d.err, &mErr) {
				t.Errorf("varInt(%x) = %v, want MessageError", tt.in, d.err)
			}
		})
	}
}

// A CompactSize cut short is a short payload, never the non-canonical
// encoding its zero value would spell: the first error wins.
func TestVarIntTruncated(t *testing.T) {
	for _, in := range [][]byte{{}, {0xfd}, {0xfd, 0x01}, {0xfe, 0, 0}, {0xff, 0, 0, 0, 0}} {
		d := decoder{b: in}
		if d.varInt(); d.err != io.ErrUnexpectedEOF {
			t.Errorf("varInt(%x) = %v, want ErrUnexpectedEOF", in, d.err)
		}
	}
}

func TestVarIntRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		enc := put(func(w *Buf) { w.putVarInt(v) })
		d := decoder{b: enc}
		return len(enc) == VarIntSerializeSize(v) && d.varInt() == v && d.err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "/Satoshi:0.20.0/", string(make([]byte, 300))} {
		d := decoder{b: put(func(w *Buf) { w.putVarString(s) })}
		if out := d.varString("test", 1024); d.err != nil || out != s {
			t.Errorf("round trip = %q, %v, want %q", out, d.err, s)
		}
	}
}

func TestVarStringTooLong(t *testing.T) {
	d := decoder{b: put(func(w *Buf) { w.putVarString(string(make([]byte, 100))) })}
	d.varString("test", 99)
	var mErr *MessageError
	if !errors.As(d.err, &mErr) {
		t.Errorf("varString above cap = %v, want MessageError", d.err)
	}
}

func TestVarBytesRoundTrip(t *testing.T) {
	in := []byte{1, 2, 3, 4, 5}
	enc := put(func(w *Buf) { w.putVarBytes(in) })
	d := decoder{b: enc}
	out := d.varBytes("test", 16)
	if d.err != nil || !bytes.Equal(out, in) {
		t.Errorf("round trip = %x, %v, want %x", out, d.err, in)
	}
	// The payload is a pooled buffer: what a message keeps is a copy.
	enc[1] = 0xdb
	if out[0] != 1 {
		t.Error("varBytes aliases the payload")
	}
}

func TestVarBytesTooLong(t *testing.T) {
	d := decoder{b: put(func(w *Buf) { w.putVarBytes(make([]byte, 10)) })}
	d.varBytes("test", 9)
	var mErr *MessageError
	if !errors.As(d.err, &mErr) {
		t.Errorf("varBytes above cap = %v, want MessageError", d.err)
	}
}

// TestCountBeforeBytes: a count within the cap that the rest of the payload
// cannot back is a short payload, and says so before the caller allocates.
func TestCountBeforeBytes(t *testing.T) {
	payload := append([]byte{3}, make([]byte, 3*32-1)...)
	d := decoder{b: payload}
	if n := d.count("hashes", 500, 32); n != 0 || d.err != io.ErrUnexpectedEOF {
		t.Errorf("count = %d, %v, want 0, ErrUnexpectedEOF", n, d.err)
	}
	d = decoder{b: append(payload, 0)}
	if n := d.count("hashes", 500, 32); n != 3 || d.err != nil {
		t.Errorf("count = %d, %v, want 3", n, d.err)
	}
}

func TestReadElementsTruncated(t *testing.T) {
	d := decoder{}
	if d.uint16(); d.err != io.ErrUnexpectedEOF {
		t.Errorf("uint16 on empty = %v, want ErrUnexpectedEOF", d.err)
	}
	d = decoder{b: []byte{1, 2}}
	if d.uint32(); d.err == nil {
		t.Error("uint32 succeeded on 2 bytes")
	}
	// The error sticks: bytes that would satisfy a later read are not read.
	if v := d.uint16(); v != 0 || d.err != io.ErrUnexpectedEOF {
		t.Errorf("uint16 after a failed read = %d, %v", v, d.err)
	}
	d = decoder{b: []byte{1, 2, 3}}
	if d.uint64(); d.err == nil {
		t.Error("uint64 succeeded on 3 bytes")
	}
}

func TestUint16BERoundTrip(t *testing.T) {
	enc := put(func(w *Buf) { w.putUint16BE(8333) })
	if enc[0] != 0x20 || enc[1] != 0x8d {
		t.Errorf("big-endian encoding of 8333 = %x", enc)
	}
	d := decoder{b: enc}
	if v := d.uint16BE(); d.err != nil || v != 8333 {
		t.Errorf("round trip = %d, %v", v, d.err)
	}
}

func TestBoolRoundTrip(t *testing.T) {
	for _, v := range []bool{true, false} {
		d := decoder{b: put(func(w *Buf) { w.putBool(v) })}
		if out := d.bool(); d.err != nil || out != v {
			t.Errorf("bool round trip(%v) = %v, %v", v, out, d.err)
		}
	}
}
