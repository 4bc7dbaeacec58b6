package chainhash

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// reference4 is the wire checksum by its definition.
func reference4(b []byte) [4]byte {
	first := sha256.Sum256(b)
	second := sha256.Sum256(first[:])
	return [4]byte(second[:4])
}

// checksumPaths is every Checksum4 body this build and CPU can run.
func checksumPaths(tb testing.TB) map[string]func([]byte) [4]byte {
	paths := map[string]func([]byte) [4]byte{"std": checksum4Std, "Checksum4": Checksum4}
	if useSHANI {
		paths["shani"] = checksum4SHANI
	} else {
		tb.Log("no SHA-NI kernel in this build or on this CPU: only the crypto/sha256 path runs")
	}
	return paths
}

// TestChecksum4MatchesReference covers every tail length — the one- and
// two-block padding edges at 55/56 and 119/120 bytes, the whole-block
// lengths 63/64 — and random lengths up to 1 MB.
func TestChecksum4MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 1<<20)
	rng.Read(buf)
	lengths := make([]int, 0, 301+24)
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for range 23 {
		lengths = append(lengths, rng.Intn(len(buf)+1))
	}
	lengths = append(lengths, len(buf))
	for name, sum := range checksumPaths(t) {
		for _, n := range lengths {
			for _, off := range []int{0, 1} { // aligned and unaligned payloads
				if n+off > len(buf) {
					continue
				}
				b := buf[off : off+n]
				if got, want := sum(b), reference4(b); got != want {
					t.Fatalf("%s: %d bytes at offset %d: %x, want %x", name, n, off, got, want)
				}
			}
		}
	}
}

func FuzzChecksum4(f *testing.F) {
	for _, n := range []int{0, 8, 55, 56, 63, 64, 119, 120, 125} {
		f.Add(make([]byte, n))
	}
	paths := checksumPaths(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		want := reference4(b)
		for name, sum := range paths {
			if got := sum(b); got != want {
				t.Fatalf("%s: %x, want %x", name, got, want)
			}
		}
	})
}

func TestChecksum4AllocatesNothing(t *testing.T) {
	for _, n := range []int{8, 125, 1 << 16} {
		b := make([]byte, n)
		if allocs := testing.AllocsPerRun(100, func() { _ = Checksum4(b) }); allocs != 0 {
			t.Errorf("Checksum4 of %d bytes: %v allocations, want 0", n, allocs)
		}
	}
}

var checksumSink [4]byte

// BenchmarkChecksum4 prices the checksum at a PING payload, a VERSION
// payload and the bogus-BLOCK flood's megabyte.
func BenchmarkChecksum4(b *testing.B) {
	for _, n := range []int{8, 125, 1 << 20} {
		payload := make([]byte, n)
		b.Run(fmt.Sprintf("bytes=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for range b.N {
				checksumSink = Checksum4(payload)
			}
		})
	}
}
