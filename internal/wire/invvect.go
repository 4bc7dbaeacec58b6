package wire

import (
	"fmt"

	"banscore/internal/chainhash"
)

// InvType represents the allowed types of inventory vectors.
type InvType uint32

// Inventory vector types.
const (
	InvTypeError                InvType = 0
	InvTypeTx                   InvType = 1
	InvTypeBlock                InvType = 2
	InvTypeFilteredBlock        InvType = 3
	InvTypeCompactBlock         InvType = 4
	InvTypeWitnessTx            InvType = InvType(InvWitnessFlag) | InvTypeTx
	InvTypeWitnessBlock         InvType = InvType(InvWitnessFlag) | InvTypeBlock
	InvTypeFilteredWitnessBlock InvType = InvType(InvWitnessFlag) | InvTypeFilteredBlock
)

// InvWitnessFlag denotes that the peer should be sent witness data.
const InvWitnessFlag = 1 << 30

var ivStrings = map[InvType]string{
	InvTypeError:                "ERROR",
	InvTypeTx:                   "MSG_TX",
	InvTypeBlock:                "MSG_BLOCK",
	InvTypeFilteredBlock:        "MSG_FILTERED_BLOCK",
	InvTypeCompactBlock:         "MSG_CMPCT_BLOCK",
	InvTypeWitnessTx:            "MSG_WITNESS_TX",
	InvTypeWitnessBlock:         "MSG_WITNESS_BLOCK",
	InvTypeFilteredWitnessBlock: "MSG_FILTERED_WITNESS_BLOCK",
}

// String returns the InvType in human-readable form.
func (invtype InvType) String() string {
	if s, ok := ivStrings[invtype]; ok {
		return s
	}
	return fmt.Sprintf("Unknown InvType (%d)", uint32(invtype))
}

// InvVect defines an inventory vector: a typed reference to an object a peer
// has or wants.
type InvVect struct {
	Type InvType
	Hash chainhash.Hash
}

// NewInvVect returns an InvVect for the given type and hash.
func NewInvVect(typ InvType, hash *chainhash.Hash) *InvVect {
	return &InvVect{Type: typ, Hash: *hash}
}

// invVectSerializeSize is the wire size of an inventory vector.
const invVectSerializeSize = 4 + chainhash.HashSize

func readInvVect(d *decoder, iv *InvVect) {
	iv.Type = InvType(d.uint32())
	iv.Hash = d.hash()
}

func writeInvVect(w *Buf, iv *InvVect) {
	w.putUint32(uint32(iv.Type))
	w.putHash(&iv.Hash)
}
