package wire

import (
	"time"

	"banscore/internal/chainhash"
)

// BlockHeaderLen is the serialized size of a block header.
const BlockHeaderLen = 80

// BlockHeader defines a Bitcoin block header: the 80 bytes over which the
// proof of work is computed.
type BlockHeader struct {
	// Version of the block.
	Version int32

	// PrevBlock is the hash of the previous block header in the chain.
	PrevBlock chainhash.Hash

	// MerkleRoot of the transactions in the block.
	MerkleRoot chainhash.Hash

	// Timestamp the block was created (second precision on the wire).
	Timestamp time.Time

	// Bits is the compact-form difficulty target.
	Bits uint32

	// Nonce ground by miners to satisfy the target.
	Nonce uint32
}

// BlockHash computes the double-SHA256 hash of the serialized header, which
// is the block's identity and its proof-of-work value.
func (h *BlockHeader) BlockHash() chainhash.Hash {
	buf := GetBuf(0)
	writeBlockHeader(buf, h)
	hash := chainhash.DoubleHashH(buf.Bytes())
	buf.Release()
	return hash
}

// NewBlockHeader returns a header with the timestamp truncated to seconds,
// matching wire precision.
func NewBlockHeader(version int32, prevBlock, merkleRoot *chainhash.Hash, timestamp time.Time, bits, nonce uint32) *BlockHeader {
	return &BlockHeader{
		Version:    version,
		PrevBlock:  *prevBlock,
		MerkleRoot: *merkleRoot,
		Timestamp:  time.Unix(timestamp.Unix(), 0),
		Bits:       bits,
		Nonce:      nonce,
	}
}

func readBlockHeader(d *decoder, h *BlockHeader) {
	h.Version = int32(d.uint32())
	h.PrevBlock = d.hash()
	h.MerkleRoot = d.hash()
	h.Timestamp = time.Unix(int64(d.uint32()), 0)
	h.Bits = d.uint32()
	h.Nonce = d.uint32()
}

func writeBlockHeader(w *Buf, h *BlockHeader) {
	w.putUint32(uint32(h.Version))
	w.putHash(&h.PrevBlock)
	w.putHash(&h.MerkleRoot)
	w.putUint32(uint32(h.Timestamp.Unix()))
	w.putUint32(h.Bits)
	w.putUint32(h.Nonce)
}
