package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"banscore/internal/chainhash"
)

// decoder is the one cursor every message decodes through. The frame layer
// checks a payload's length and checksum before any decoder runs, so what a
// decoder reads is a complete byte slice — usually a pooled buffer its owner
// releases after dispatch, which is why nothing decoded may alias it — and
// the cursor always knows how much of it is left.
//
// take is the only bounds check. The first error sticks: the read that fails
// and every read after it return zero values, so a decoder runs straight-line
// and returns err once, and a check that happens to run on such a zero value
// cannot displace the error that produced it (malformed is first-error-wins
// too). Loops over a wire-supplied count also test err, so they stop where
// the payload did.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

// take returns the next n bytes of the payload without copying. A payload
// that ends first is io.ErrUnexpectedEOF wherever it ends: the frame header
// promised a whole message.
func (d *decoder) take(n int) ([]byte, bool) {
	if d.err != nil {
		return nil, false
	}
	if d.remaining() < n {
		d.err = io.ErrUnexpectedEOF
		return nil, false
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s, true
}

// malformed records a protocol violation, unless the payload has already
// failed some other way.
func (d *decoder) malformed(format string, args ...any) {
	if d.err == nil {
		d.err = messageError("BtcDecode", fmt.Sprintf(format, args...))
	}
}

func (d *decoder) uint8() uint8 {
	if s, ok := d.take(1); ok {
		return s[0]
	}
	return 0
}

func (d *decoder) uint16() uint16 {
	if s, ok := d.take(2); ok {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (d *decoder) uint16BE() uint16 {
	if s, ok := d.take(2); ok {
		return binary.BigEndian.Uint16(s)
	}
	return 0
}

func (d *decoder) uint32() uint32 {
	if s, ok := d.take(4); ok {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (d *decoder) uint64() uint64 {
	if s, ok := d.take(8); ok {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (d *decoder) bool() bool { return d.uint8() != 0 }

func (d *decoder) hash() (h chainhash.Hash) {
	if s, ok := d.take(chainhash.HashSize); ok {
		copy(h[:], s)
	}
	return h
}

// varInt reads a Bitcoin CompactSize unsigned integer, rejecting
// non-canonical encodings exactly as Bitcoin Core does.
func (d *decoder) varInt() uint64 {
	var v, minimum uint64
	discriminant := d.uint8()
	switch discriminant {
	case 0xff:
		v, minimum = d.uint64(), 0x100000000
	case 0xfe:
		v, minimum = uint64(d.uint32()), 0x10000
	case 0xfd:
		v, minimum = uint64(d.uint16()), 0xfd
	default:
		return uint64(discriminant)
	}
	if v < minimum {
		d.malformed("CompactSize %d (0x%x) is not canonical: value must be at least %d", v, discriminant, minimum)
		return 0
	}
	return v
}

// count reads the CompactSize length of a list (or byte string) of what,
// whose items take at least itemSize bytes each on the wire. More than limit is
// a protocol violation. More than the rest of the payload could hold is a
// payload that ends early, and is reported as one here — before anything is
// allocated on the strength of the claim — so what a decoder allocates is
// bounded by the bytes it was sent, not by the policy cap.
func (d *decoder) count(what string, limit uint64, itemSize int) uint64 {
	n := d.varInt()
	if n > limit {
		d.malformed("%s: %d exceeds max %d", what, n, limit)
	} else if n > uint64(d.remaining()/itemSize) {
		// n > 0, so varInt succeeded and there is no earlier error.
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return 0
	}
	return n
}

// varSlice reads a length-prefixed byte string of at most limit bytes. The
// result aliases the payload: the caller copies what it keeps.
func (d *decoder) varSlice(what string, limit uint64) []byte {
	s, _ := d.take(int(d.count(what, limit, 1)))
	return s
}

// varBytes is varSlice copied into memory the message owns.
func (d *decoder) varBytes(what string, limit uint64) []byte {
	s := d.varSlice(what, limit)
	return append(make([]byte, 0, len(s)), s...)
}

// varString reads a length-prefixed string of at most limit bytes.
func (d *decoder) varString(what string, limit uint64) string {
	return string(d.varSlice(what, limit))
}
