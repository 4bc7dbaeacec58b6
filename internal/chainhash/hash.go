// Package chainhash provides the 32-byte hash type and the double-SHA256
// primitives used throughout the Bitcoin wire protocol and chain validation.
//
// Checksum4, the wire checksum every frame pays, runs a SHA-256d kernel on
// amd64 CPUs with the SHA extensions: the standard library's blockSHANI,
// vendored under its BSD-3 license in sha256block_amd64.s. Every other CPU,
// GOARCH or purego build runs two crypto/sha256 sums. DoubleHashH stays on
// crypto/sha256: the block-header hash is the miner's unit of work in the
// Fig. 6/7 and Table III experiments, and moving it waits until those
// experiments count work instead of timing it.
package chainhash

import (
	"crypto/sha256"
	"encoding/hex"
)

// HashSize is the size in bytes of a Hash.
const HashSize = 32

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

// DoubleHashH returns SHA-256(SHA-256(b)) as a Hash.
func DoubleHashH(b []byte) Hash {
	first := sha256.Sum256(b)
	return Hash(sha256.Sum256(first[:]))
}

// Checksum4 returns the first four bytes of SHA-256(SHA-256(b)) — the wire
// message checksum — without a heap allocation. The framing hot path
// verifies one of these per inbound message.
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
