package wal

import (
	"encoding/binary"
	"math"
	"time"
)

// Field codec. Record and snapshot payloads are hand-rolled binary: varints
// for integers, uvarint-length-prefixed bytes for strings, one byte for
// bools, IEEE bits for floats, and an explicit present/absent flag plus
// UnixNano varint for times (UnixNano alone cannot represent the zero time,
// and epoch-0 is a legitimate virtual-clock reading the determinism tests
// exercise). The encoding is canonical: the same logical value always
// serializes to the same bytes, which is what lets the recovery property
// tests compare states byte-for-byte.

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a signed (zig-zag) varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends v's IEEE 754 bits, little-endian.
func AppendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendTime appends a present flag and, for a non-zero t, its UnixNano as
// a varint.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 0)
	}
	b = append(b, 1)
	return binary.AppendVarint(b, t.UnixNano())
}

// Decoder walks one payload. The first decode error sticks; every
// subsequent read returns zero values, so record decoders can run
// straight-line and check Err once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder returns a decoder positioned at the start of b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns ErrCorrupt once any read has run past or misparsed the
// payload, nil otherwise.
func (d *Decoder) Err() error { return d.err }

// Remaining reports how many bytes have not been consumed.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = ErrCorrupt
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = ErrCorrupt
		return 0
	}
	d.off += n
	return v
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.err = ErrCorrupt
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bool reads one byte as a bool.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.err = ErrCorrupt
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

// Float reads eight bytes of IEEE 754 bits.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.err = ErrCorrupt
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Time reads a present flag and, when set, a UnixNano varint.
func (d *Decoder) Time() time.Time {
	if !d.Bool() {
		return time.Time{}
	}
	return time.Unix(0, d.Varint())
}
