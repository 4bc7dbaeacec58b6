// Package chainhash provides the 32-byte hash type and the double-SHA256
// primitives used throughout the Bitcoin wire protocol and chain validation.
//
// Checksum4, the wire checksum every frame pays, runs a SHA-256d kernel on
// amd64 CPUs with the SHA extensions: the standard library's blockSHANI,
// vendored under its BSD-3 license in sha256block_amd64.s. Every other CPU,
// GOARCH or purego build runs two crypto/sha256 sums. DoubleHashH and
// DoubleHashB stay on crypto/sha256: the block-header hash is the miner's
// unit of work in the Fig. 6/7 and Table III experiments, and moving it
// waits until those experiments count work instead of timing it.
package chainhash

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// HashSize is the size in bytes of a Hash.
const HashSize = 32

// MaxHashStringSize is the maximum length of a Hash hex string.
const MaxHashStringSize = HashSize * 2

// ErrHashStrSize describes an error where a hash string has an invalid length.
var ErrHashStrSize = fmt.Errorf("max hash string length is %d bytes", MaxHashStringSize)

// Hash is a 32-byte value used throughout Bitcoin for block hashes, merkle
// roots, and transaction ids. The bytes are stored in little-endian wire
// order; String renders the conventional big-endian hex form.
type Hash [HashSize]byte

// String returns the Hash in the reversed-hex form used by Bitcoin tooling.
func (h Hash) String() string {
	for i := 0; i < HashSize/2; i++ {
		h[i], h[HashSize-1-i] = h[HashSize-1-i], h[i]
	}
	return hex.EncodeToString(h[:])
}

// CloneBytes returns a copy of the hash bytes in wire (little-endian) order.
func (h *Hash) CloneBytes() []byte {
	out := make([]byte, HashSize)
	copy(out, h[:])
	return out
}

// SetBytes sets the hash from b, which must be exactly HashSize bytes.
func (h *Hash) SetBytes(b []byte) error {
	if len(b) != HashSize {
		return fmt.Errorf("invalid hash length of %d, want %d", len(b), HashSize)
	}
	copy(h[:], b)
	return nil
}

// IsEqual reports whether target equals h. A nil target equals only a nil h.
func (h *Hash) IsEqual(target *Hash) bool {
	if h == nil && target == nil {
		return true
	}
	if h == nil || target == nil {
		return false
	}
	return *h == *target
}

// NewHash returns a Hash from exactly HashSize bytes in wire order.
func NewHash(b []byte) (*Hash, error) {
	var h Hash
	if err := h.SetBytes(b); err != nil {
		return nil, err
	}
	return &h, nil
}

// NewHashFromStr parses the conventional big-endian hex form. Short strings
// are zero-padded on the left, matching Bitcoin Core behavior.
func NewHashFromStr(s string) (*Hash, error) {
	var h Hash
	if err := Decode(&h, s); err != nil {
		return nil, err
	}
	return &h, nil
}

// Decode decodes the big-endian hex string into dst.
func Decode(dst *Hash, src string) error {
	if len(src) > MaxHashStringSize {
		return ErrHashStrSize
	}
	// Pad to even length for hex decoding.
	var srcBytes []byte
	if len(src)%2 == 0 {
		srcBytes = []byte(src)
	} else {
		srcBytes = make([]byte, 1+len(src))
		srcBytes[0] = '0'
		copy(srcBytes[1:], src)
	}
	var reversed Hash
	_, err := hex.Decode(reversed[HashSize-hex.DecodedLen(len(srcBytes)):], srcBytes)
	if err != nil {
		return fmt.Errorf("decode hash hex: %w", err)
	}
	for i, b := range reversed[:HashSize/2] {
		dst[i], dst[HashSize-1-i] = reversed[HashSize-1-i], b
	}
	return nil
}

// HashB returns the single SHA-256 of b.
func HashB(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

// HashH returns the single SHA-256 of b as a Hash.
func HashH(b []byte) Hash {
	return Hash(sha256.Sum256(b))
}

// DoubleHashB returns SHA-256(SHA-256(b)).
func DoubleHashB(b []byte) []byte {
	first := sha256.Sum256(b)
	second := sha256.Sum256(first[:])
	return second[:]
}

// DoubleHashH returns SHA-256(SHA-256(b)) as a Hash.
func DoubleHashH(b []byte) Hash {
	first := sha256.Sum256(b)
	return Hash(sha256.Sum256(first[:]))
}

// Checksum4 returns the first four bytes of SHA-256(SHA-256(b)) — the wire
// message checksum — without a heap allocation, unlike slicing DoubleHashB.
// The framing hot path verifies one of these per inbound message.
func Checksum4(b []byte) [4]byte {
	if useSHANI {
		return checksum4SHANI(b)
	}
	return checksum4Std(b)
}

// checksum4Std is Checksum4 on crypto/sha256.
func checksum4Std(b []byte) [4]byte {
	first := sha256.Sum256(b)
	second := sha256.Sum256(first[:])
	var c [4]byte
	copy(c[:], second[:4])
	return c
}

// ZeroHash is the all-zero hash, used as the previous-block hash of genesis.
var ZeroHash = Hash{}
