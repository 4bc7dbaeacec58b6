//go:build !amd64 || purego

package chainhash

// useSHANI is false where blockSHANI is not built: every Checksum4 runs
// checksum4Std.
const useSHANI = false

func checksum4SHANI([]byte) [4]byte {
	panic("chainhash: no SHA-NI kernel in this build")
}
