package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"banscore/internal/chainhash"
)

// The integer helpers fast-path the repository's two concrete hot-path
// endpoints — *payloadReader on decode, *Buf on encode — because a stack
// buffer handed through the io.Reader/io.Writer interface escapes to the
// heap, and these helpers run several times per message on the flood
// path. The interface fallbacks keep every other reader/writer working.

func readUint8(r io.Reader) (uint8, error) {
	if pr, ok := r.(*payloadReader); ok {
		if s, ok := pr.take(1); ok {
			return s[0], nil
		}
		return 0, pr.eofErr()
	}
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return b[0], nil
}

func writeUint8(w io.Writer, v uint8) error {
	if b, ok := w.(*Buf); ok {
		var s [1]byte
		s[0] = v
		_, _ = b.Write(s[:])
		return nil
	}
	_, err := w.Write([]byte{v})
	return err
}

func readUint16(r io.Reader) (uint16, error) {
	if pr, ok := r.(*payloadReader); ok {
		if s, ok := pr.take(2); ok {
			return binary.LittleEndian.Uint16(s), nil
		}
		return 0, pr.eofErr()
	}
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

func writeUint16(w io.Writer, v uint16) error {
	if b, ok := w.(*Buf); ok {
		var s [2]byte
		binary.LittleEndian.PutUint16(s[:], v)
		_, _ = b.Write(s[:])
		return nil
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readUint16BE(r io.Reader) (uint16, error) {
	if pr, ok := r.(*payloadReader); ok {
		if s, ok := pr.take(2); ok {
			return binary.BigEndian.Uint16(s), nil
		}
		return 0, pr.eofErr()
	}
	var b [2]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b[:]), nil
}

func writeUint16BE(w io.Writer, v uint16) error {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readUint32(r io.Reader) (uint32, error) {
	if pr, ok := r.(*payloadReader); ok {
		if s, ok := pr.take(4); ok {
			return binary.LittleEndian.Uint32(s), nil
		}
		return 0, pr.eofErr()
	}
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func writeUint32(w io.Writer, v uint32) error {
	if b, ok := w.(*Buf); ok {
		var s [4]byte
		binary.LittleEndian.PutUint32(s[:], v)
		_, _ = b.Write(s[:])
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readUint64(r io.Reader) (uint64, error) {
	if pr, ok := r.(*payloadReader); ok {
		if s, ok := pr.take(8); ok {
			return binary.LittleEndian.Uint64(s), nil
		}
		return 0, pr.eofErr()
	}
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func writeUint64(w io.Writer, v uint64) error {
	if b, ok := w.(*Buf); ok {
		var s [8]byte
		binary.LittleEndian.PutUint64(s[:], v)
		_, _ = b.Write(s[:])
		return nil
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readBool(r io.Reader) (bool, error) {
	v, err := readUint8(r)
	if err != nil {
		return false, err
	}
	return v != 0, nil
}

func writeBool(w io.Writer, v bool) error {
	var b uint8
	if v {
		b = 1
	}
	return writeUint8(w, b)
}

func readHash(r io.Reader, h *chainhash.Hash) error {
	_, err := io.ReadFull(r, h[:])
	return err
}

func writeHash(w io.Writer, h *chainhash.Hash) error {
	_, err := w.Write(h[:])
	return err
}

// ReadVarInt reads a Bitcoin CompactSize unsigned integer, rejecting
// non-canonical encodings exactly as Bitcoin Core does.
func ReadVarInt(r io.Reader) (uint64, error) {
	discriminant, err := readUint8(r)
	if err != nil {
		return 0, err
	}
	var rv uint64
	switch discriminant {
	case 0xff:
		v, err := readUint64(r)
		if err != nil {
			return 0, err
		}
		if v < 0x100000000 {
			return 0, messageError("ReadVarInt", nonCanonicalVarInt(v, discriminant, 0x100000000))
		}
		rv = v
	case 0xfe:
		v, err := readUint32(r)
		if err != nil {
			return 0, err
		}
		if v < 0x10000 {
			return 0, messageError("ReadVarInt", nonCanonicalVarInt(uint64(v), discriminant, 0x10000))
		}
		rv = uint64(v)
	case 0xfd:
		v, err := readUint16(r)
		if err != nil {
			return 0, err
		}
		if v < 0xfd {
			return 0, messageError("ReadVarInt", nonCanonicalVarInt(uint64(v), discriminant, 0xfd))
		}
		rv = uint64(v)
	default:
		rv = uint64(discriminant)
	}
	return rv, nil
}

func nonCanonicalVarInt(v uint64, discriminant uint8, minimum uint64) string {
	return fmt.Sprintf("CompactSize %d (0x%x) is not canonical: value must be at least %d", v, discriminant, minimum)
}

// WriteVarInt writes a Bitcoin CompactSize unsigned integer.
func WriteVarInt(w io.Writer, v uint64) error {
	switch {
	case v < 0xfd:
		return writeUint8(w, uint8(v))
	case v <= math.MaxUint16:
		if err := writeUint8(w, 0xfd); err != nil {
			return err
		}
		return writeUint16(w, uint16(v))
	case v <= math.MaxUint32:
		if err := writeUint8(w, 0xfe); err != nil {
			return err
		}
		return writeUint32(w, uint32(v))
	default:
		if err := writeUint8(w, 0xff); err != nil {
			return err
		}
		return writeUint64(w, v)
	}
}

// VarIntSerializeSize returns the number of bytes WriteVarInt would emit.
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

// ReadVarString reads a variable-length string with a sanity cap so a
// malicious peer cannot force a huge allocation.
func ReadVarString(r io.Reader, maxLen uint64) (string, error) {
	b, err := readVarStringBytes(r, maxLen)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// readVarStringBytes is ReadVarString short of the string conversion. From a
// *payloadReader the result aliases the pooled payload — no scratch slice is
// allocated — so the caller must copy what it keeps before the next read.
func readVarStringBytes(r io.Reader, maxLen uint64) ([]byte, error) {
	count, err := ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if count > maxLen {
		return nil, messageError("ReadVarString",
			fmt.Sprintf("variable length string is too long [count %d, max %d]", count, maxLen))
	}
	if pr, ok := r.(*payloadReader); ok {
		if s, ok := pr.take(int(count)); ok {
			return s, nil
		}
		return nil, pr.eofErr()
	}
	buf := make([]byte, count)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteVarString writes a variable-length string.
func WriteVarString(w io.Writer, s string) error {
	if err := WriteVarInt(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

// ReadVarBytes reads a variable-length byte slice capped at maxAllowed.
func ReadVarBytes(r io.Reader, maxAllowed uint64, fieldName string) ([]byte, error) {
	count, err := ReadVarInt(r)
	if err != nil {
		return nil, err
	}
	if count > maxAllowed {
		return nil, messageError("ReadVarBytes",
			fmt.Sprintf("%s is larger than the max allowed size [count %d, max %d]", fieldName, count, maxAllowed))
	}
	b := make([]byte, count)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteVarBytes writes a variable-length byte slice.
func WriteVarBytes(w io.Writer, b []byte) error {
	if err := WriteVarInt(w, uint64(len(b))); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}
