package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// lyingCountCases returns, for every counted list and length-prefixed field
// of the protocol, a payload that is well-formed up to the count, claims the
// largest count the policy cap lets through, and ends right there.
func lyingCountCases() []canonicalCase {
	count := func(prefix []byte, n uint64) []byte {
		return put(func(w *Buf) {
			w.putBytes(prefix)
			w.putVarInt(n)
		})
	}
	zeros := func(n int) []byte { return make([]byte, n) }
	// A transaction up to its output count: version, one input (outpoint,
	// empty script, sequence).
	oneInput := func(head ...byte) []byte {
		return append(append(zeros(4), head...), append([]byte{1}, zeros(36+1+4)...)...)
	}
	return []canonicalCase{
		{"addr", CmdAddr, count(nil, hardMaxAddrPerMsg)},
		{"inv", CmdInv, count(nil, hardMaxInvPerMsg)},
		{"getdata", CmdGetData, count(nil, hardMaxInvPerMsg)},
		{"notfound", CmdNotFound, count(nil, hardMaxInvPerMsg)},
		{"headers", CmdHeaders, count(nil, hardMaxBlockHeadersPerMsg)},
		{"getblocks", CmdGetBlocks, count(zeros(4), MaxBlockLocatorsPerMsg)},
		{"getheaders", CmdGetHeaders, count(zeros(4), MaxBlockLocatorsPerMsg)},
		{"tx/inputs", CmdTx, count(zeros(4), maxTxPerMsg)},
		{"tx/script", CmdTx, count(append(zeros(4), append([]byte{1}, zeros(36)...)...), maxScriptSize)},
		{"tx/outputs", CmdTx, count(oneInput(), maxTxPerMsg)},
		{"tx/witness-items", CmdTx, count(append(oneInput(TxFlagMarker, WitnessFlag), 0), maxWitnessItemsPerInput)},
		{"block", CmdBlock, count(zeros(BlockHeaderLen), maxTxPerMsg)},
		{"merkleblock/hashes", CmdMerkleBlock, count(zeros(BlockHeaderLen+4), maxTxPerMsg)},
		{"merkleblock/flags", CmdMerkleBlock, count(zeros(BlockHeaderLen+4+1), maxFlagsPerMerkleBlock)},
		{"cmpctblock/shortids", CmdCmpctBlock, count(zeros(BlockHeaderLen+8), maxShortIDsPerBlock)},
		{"cmpctblock/prefilled", CmdCmpctBlock, count(zeros(BlockHeaderLen+8+1), maxShortIDsPerBlock)},
		{"getblocktxn", CmdGetBlockTxn, count(zeros(32), maxShortIDsPerBlock)},
		{"blocktxn", CmdBlockTxn, count(zeros(32), maxTxPerMsg)},
		{"filterload", CmdFilterLoad, count(nil, hardMaxFilterLoadFilterSize)},
		{"filteradd", CmdFilterAdd, count(nil, hardMaxFilterAddDataSize)},
	}
}

// TestLyingCountAllocatesNothing holds every decoder to the bytes it was
// given: a count the payload cannot back is a short payload, found before
// anything is allocated for it. The frames carry correct checksums, so this is
// not the bogus-checksum drop — they reach the decoder, and a decoder that
// believed the count would hand a ~30-byte frame hundreds of kilobytes of
// victim allocation and an unscored disconnect.
func TestLyingCountAllocatesNothing(t *testing.T) {
	var codec Codec
	var rd bytes.Reader
	for _, c := range lyingCountCases() {
		raw := frame(t, c.command, c.payload)
		decode := func() error {
			rd.Reset(raw)
			_, buf, err := codec.DecodeMessage(&rd, ProtocolVersion, MainNet, nil)
			if buf == nil {
				t.Fatalf("%s: rejected by the frame layer: %v", c.name, err)
			}
			buf.Release()
			return err
		}
		// Warm up: the payload buffer comes from the pool from here on, and
		// ReadMemStats has made its own first-call allocations.
		var before, after runtime.MemStats
		_ = decode()
		runtime.ReadMemStats(&before)
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if class := decodeClass(err); class != "short" {
			t.Errorf("%s: %d-byte frame classified %s (%v), want short", c.name, len(raw), class, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
			t.Errorf("%s: %d-byte frame made DecodeMessage allocate %d bytes", c.name, len(raw), got)
		} else {
			t.Logf("%s: %d-byte frame, %d bytes allocated", c.name, len(raw), got)
		}
	}
}
