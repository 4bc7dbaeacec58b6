package chainhash

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestHashString(t *testing.T) {
	// The genesis block hash, little-endian wire order.
	wire, err := hex.DecodeString("6fe28c0ab6f1b372c1a6a246ae63f74f931e8365e15a089c68d6190000000000")
	if err != nil {
		t.Fatal(err)
	}
	var h Hash
	copy(h[:], wire)
	want := "000000000019d6689c085ae165831e934ff763ae46a2a6c172b3f1b60a8ce26f"
	if got := h.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDoubleHashKnownVector(t *testing.T) {
	// SHA256d("hello") is a well-known vector.
	got := DoubleHashH([]byte("hello"))
	want := "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("DoubleHashH(hello) = %x, want %s", got[:], want)
	}
	if c := Checksum4([]byte("hello")); !bytes.Equal(c[:], got[:4]) {
		t.Error("Checksum4 and DoubleHashH disagree")
	}
}

// TestStringRoundTripProperty: String is the wire bytes reversed, in hex, so
// hex-decoding it and reversing again gives back the hash.
func TestStringRoundTripProperty(t *testing.T) {
	f := func(b [HashSize]byte) bool {
		h := Hash(b)
		dec, err := hex.DecodeString(h.String())
		if err != nil || len(dec) != HashSize {
			return false
		}
		for i := range dec {
			if dec[i] != h[HashSize-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMerkleRootEmpty(t *testing.T) {
	if got := MerkleRoot(nil); got != ZeroHash {
		t.Errorf("MerkleRoot(nil) = %v, want zero", got)
	}
}

func TestMerkleRootSingle(t *testing.T) {
	h := DoubleHashH([]byte("tx"))
	if got := MerkleRoot([]Hash{h}); got != h {
		t.Errorf("MerkleRoot(single) = %v, want the leaf itself", got)
	}
}

func TestMerkleRootPair(t *testing.T) {
	a := DoubleHashH([]byte("a"))
	b := DoubleHashH([]byte("b"))
	var buf [64]byte
	copy(buf[:32], a[:])
	copy(buf[32:], b[:])
	want := DoubleHashH(buf[:])
	if got := MerkleRoot([]Hash{a, b}); got != want {
		t.Errorf("MerkleRoot(pair) = %v, want %v", got, want)
	}
}

func TestMerkleRootOddDuplicatesLast(t *testing.T) {
	a := DoubleHashH([]byte("a"))
	b := DoubleHashH([]byte("b"))
	c := DoubleHashH([]byte("c"))
	// Odd level duplicates the last leaf: [a b c] == [a b c c].
	if MerkleRoot([]Hash{a, b, c}) != MerkleRoot([]Hash{a, b, c, c}) {
		t.Error("odd-length level should behave as if the last hash were duplicated")
	}
}

func TestMerkleRootDoesNotMutateInput(t *testing.T) {
	leaves := []Hash{DoubleHashH([]byte("a")), DoubleHashH([]byte("b")), DoubleHashH([]byte("c"))}
	orig := make([]Hash, len(leaves))
	copy(orig, leaves)
	MerkleRoot(leaves)
	for i := range leaves {
		if leaves[i] != orig[i] {
			t.Fatalf("leaf %d mutated", i)
		}
	}
}

func TestMerkleRootOrderSensitiveProperty(t *testing.T) {
	f := func(a, b [HashSize]byte) bool {
		if a == b {
			return true
		}
		ha, hb := Hash(a), Hash(b)
		return MerkleRoot([]Hash{ha, hb}) != MerkleRoot([]Hash{hb, ha})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHasDuplicateTail(t *testing.T) {
	a := DoubleHashH([]byte("a"))
	b := DoubleHashH([]byte("b"))
	tests := []struct {
		name   string
		leaves []Hash
		want   bool
	}{
		{"empty", nil, false},
		{"single", []Hash{a}, false},
		{"distinct pair", []Hash{a, b}, false},
		{"duplicate pair", []Hash{a, a}, true},
		{"duplicate tail", []Hash{b, a, a}, true},
		{"duplicate head only", []Hash{a, a, b}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := HasDuplicateTail(tt.leaves); got != tt.want {
				t.Errorf("HasDuplicateTail = %v, want %v", got, tt.want)
			}
		})
	}
}
