package wire

import (
	"fmt"

	"banscore/internal/chainhash"
)

// maxFlagsPerMerkleBlock caps the flag bitfield of a MERKLEBLOCK.
const maxFlagsPerMerkleBlock = maxTxPerMsg / 8

// MsgMerkleBlock implements the Message interface and represents a
// MERKLEBLOCK message (BIP37): a header plus a partial merkle branch proving
// filtered transactions.
type MsgMerkleBlock struct {
	Header       BlockHeader
	Transactions uint32
	Hashes       []*chainhash.Hash
	Flags        []byte
}

var _ Message = (*MsgMerkleBlock)(nil)

// NewMsgMerkleBlock returns a MERKLEBLOCK for the given header.
func NewMsgMerkleBlock(header *BlockHeader) *MsgMerkleBlock {
	return &MsgMerkleBlock{Header: *header}
}

// AddTxHash appends a transaction hash to the partial merkle proof.
func (msg *MsgMerkleBlock) AddTxHash(hash *chainhash.Hash) error {
	if len(msg.Hashes)+1 > maxTxPerMsg {
		return messageError("MsgMerkleBlock.AddTxHash",
			fmt.Sprintf("too many tx hashes [max %d]", maxTxPerMsg))
	}
	msg.Hashes = append(msg.Hashes, hash)
	return nil
}

// BtcDecode decodes the MERKLEBLOCK message.
func (msg *MsgMerkleBlock) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	readBlockHeader(&d, &msg.Header)
	msg.Transactions = d.uint32()
	msg.Hashes = readHashList(&d, "tx hashes", maxTxPerMsg)
	msg.Flags = d.varBytes("merkle block flags", maxFlagsPerMerkleBlock)
	return d.err
}

// BtcEncode encodes the MERKLEBLOCK message.
func (msg *MsgMerkleBlock) BtcEncode(w *Buf, _ uint32) error {
	if len(msg.Hashes) > maxTxPerMsg {
		return messageError("MsgMerkleBlock.BtcEncode",
			fmt.Sprintf("too many tx hashes [%d, max %d]", len(msg.Hashes), maxTxPerMsg))
	}
	if len(msg.Flags) > maxFlagsPerMerkleBlock {
		return messageError("MsgMerkleBlock.BtcEncode",
			fmt.Sprintf("too many flag bytes [%d, max %d]", len(msg.Flags), maxFlagsPerMerkleBlock))
	}
	writeBlockHeader(w, &msg.Header)
	w.putUint32(msg.Transactions)
	writeHashList(w, msg.Hashes)
	w.putVarBytes(msg.Flags)
	return nil
}

// Command returns the protocol command string.
func (msg *MsgMerkleBlock) Command() string { return CmdMerkleBlock }

// MaxPayloadLength returns the maximum payload a MERKLEBLOCK message can be.
func (msg *MsgMerkleBlock) MaxPayloadLength(uint32) uint32 { return MaxBlockPayload }
