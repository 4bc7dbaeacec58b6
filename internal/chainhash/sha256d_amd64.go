//go:build !purego

package chainhash

import "encoding/binary"

// useSHANI reports whether this CPU runs blockSHANI: the SHA extensions
// plus the SSSE3, SSE4.1 and VEX-encoded (AVX, with the OS saving the
// vector state) instructions the routine also uses.
var useSHANI = hasSHANI()

// blockSHANI hashes the whole 64-byte blocks of p into dig
// (sha256block_amd64.s).
//
//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func hasSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const ssse3, sse41, osxsave, avx = 1 << 9, 1 << 19, 1 << 27, 1 << 28
	if ecx1&(ssse3|sse41|osxsave|avx) != ssse3|sse41|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM registers.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const sha = 1 << 29
	return ebx7&sha != 0
}

// sha256IV is SHA-256's initial hash value.
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// checksum4SHANI is Checksum4 on blockSHANI. The payload's whole blocks
// are hashed where they lie; the tail and its padding go through one or two
// blocks on the stack; the 32-byte first digest is hashed as one block whose
// padding and length are constant.
func checksum4SHANI(b []byte) [4]byte {
	h := sha256IV
	whole := len(b) &^ 63
	if whole > 0 {
		blockSHANI(&h, b[:whole])
	}
	var tail [128]byte
	n := copy(tail[:], b[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(b))<<3)
	blockSHANI(&h, tail[:end])

	var second [64]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(second[4*i:], v)
	}
	second[32] = 0x80
	binary.BigEndian.PutUint64(second[56:], 32<<3)
	h = sha256IV
	blockSHANI(&h, second[:])

	var c [4]byte
	binary.BigEndian.PutUint32(c[:], h[0])
	return c
}
