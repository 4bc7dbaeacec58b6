package wire

import (
	"encoding/binary"
	"math"

	"banscore/internal/chainhash"
)

// The encode side of the codec: every message is built in a pooled Buf, whose
// appends cannot fail, so the field writers return nothing and an encoder's
// only errors are the ones it finds in the message itself.

func (b *Buf) putUint8(v uint8) { b.b = append(b.room(1), v) }

func (b *Buf) putUint16(v uint16) { b.b = binary.LittleEndian.AppendUint16(b.room(2), v) }

func (b *Buf) putUint16BE(v uint16) { b.b = binary.BigEndian.AppendUint16(b.room(2), v) }

func (b *Buf) putUint32(v uint32) { b.b = binary.LittleEndian.AppendUint32(b.room(4), v) }

func (b *Buf) putUint64(v uint64) { b.b = binary.LittleEndian.AppendUint64(b.room(8), v) }

func (b *Buf) putBool(v bool) {
	if v {
		b.putUint8(1)
	} else {
		b.putUint8(0)
	}
}

func (b *Buf) putBytes(p []byte) { b.b = append(b.room(len(p)), p...) }

func (b *Buf) putHash(h *chainhash.Hash) { b.putBytes(h[:]) }

// putVarInt appends a Bitcoin CompactSize unsigned integer.
func (b *Buf) putVarInt(v uint64) {
	switch {
	case v < 0xfd:
		b.putUint8(uint8(v))
	case v <= math.MaxUint16:
		b.putUint8(0xfd)
		b.putUint16(uint16(v))
	case v <= math.MaxUint32:
		b.putUint8(0xfe)
		b.putUint32(uint32(v))
	default:
		b.putUint8(0xff)
		b.putUint64(v)
	}
}

// VarIntSerializeSize returns the number of bytes putVarInt emits for v.
func VarIntSerializeSize(v uint64) int {
	switch {
	case v < 0xfd:
		return 1
	case v <= math.MaxUint16:
		return 3
	case v <= math.MaxUint32:
		return 5
	default:
		return 9
	}
}

// putVarBytes appends a length-prefixed byte string.
func (b *Buf) putVarBytes(p []byte) {
	b.putVarInt(uint64(len(p)))
	b.putBytes(p)
}

// putVarString appends a length-prefixed string.
func (b *Buf) putVarString(s string) {
	b.putVarInt(uint64(len(s)))
	b.b = append(b.room(len(s)), s...)
}
