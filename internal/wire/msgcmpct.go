package wire

import "banscore/internal/chainhash"

// MsgSendCmpct implements the Message interface and represents a SENDCMPCT
// message (BIP152) negotiating compact-block relay.
type MsgSendCmpct struct {
	// Announce requests announcement via CMPCTBLOCK when true.
	Announce bool

	// Version of compact blocks requested (1 legacy, 2 segwit).
	Version uint64
}

var _ Message = (*MsgSendCmpct)(nil)

// NewMsgSendCmpct returns a SENDCMPCT with the given parameters.
func NewMsgSendCmpct(announce bool, version uint64) *MsgSendCmpct {
	return &MsgSendCmpct{Announce: announce, Version: version}
}

// BtcDecode decodes the SENDCMPCT message.
func (msg *MsgSendCmpct) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.Announce = d.bool()
	msg.Version = d.uint64()
	return d.err
}

// BtcEncode encodes the SENDCMPCT message.
func (msg *MsgSendCmpct) BtcEncode(w *Buf, _ uint32) error {
	w.putBool(msg.Announce)
	w.putUint64(msg.Version)
	return nil
}

// Command returns the protocol command string.
func (msg *MsgSendCmpct) Command() string { return CmdSendCmpct }

// MaxPayloadLength returns the maximum payload a SENDCMPCT message can be.
func (msg *MsgSendCmpct) MaxPayloadLength(uint32) uint32 { return 9 }

// PrefilledTx is a transaction sent verbatim inside a CMPCTBLOCK, with its
// index differentially encoded.
type PrefilledTx struct {
	Index uint32
	Tx    *MsgTx
}

// maxShortIDsPerBlock caps the short id list of a compact block; shortIDSize
// is the wire size of one.
const (
	maxShortIDsPerBlock = maxTxPerMsg
	shortIDSize         = 6
)

// MsgCmpctBlock implements the Message interface and represents a CMPCTBLOCK
// message (BIP152): header, nonce, 6-byte short ids, and prefilled txs.
type MsgCmpctBlock struct {
	Header       BlockHeader
	Nonce        uint64
	ShortIDs     []uint64 // low 48 bits significant
	PrefilledTxs []*PrefilledTx
}

var _ Message = (*MsgCmpctBlock)(nil)

// NewMsgCmpctBlock returns a CMPCTBLOCK for the given header.
func NewMsgCmpctBlock(header *BlockHeader) *MsgCmpctBlock {
	return &MsgCmpctBlock{Header: *header}
}

// BtcDecode decodes the CMPCTBLOCK message.
func (msg *MsgCmpctBlock) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	readBlockHeader(&d, &msg.Header)
	msg.Nonce = d.uint64()
	count := d.count("short ids", maxShortIDsPerBlock, shortIDSize)
	msg.ShortIDs = make([]uint64, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		msg.ShortIDs = append(msg.ShortIDs, uint64(d.uint32())|uint64(d.uint16())<<32)
	}
	count = d.count("prefilled txs", maxShortIDsPerBlock, 1+minTxSize)
	msg.PrefilledTxs = make([]*PrefilledTx, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		ptx := &PrefilledTx{Index: uint32(d.varInt()), Tx: &MsgTx{}}
		ptx.Tx.decode(&d)
		msg.PrefilledTxs = append(msg.PrefilledTxs, ptx)
	}
	return d.err
}

// BtcEncode encodes the CMPCTBLOCK message.
func (msg *MsgCmpctBlock) BtcEncode(w *Buf, _ uint32) error {
	writeBlockHeader(w, &msg.Header)
	w.putUint64(msg.Nonce)
	w.putVarInt(uint64(len(msg.ShortIDs)))
	for _, id := range msg.ShortIDs {
		w.putUint32(uint32(id))
		w.putUint16(uint16(id >> 32))
	}
	w.putVarInt(uint64(len(msg.PrefilledTxs)))
	for _, ptx := range msg.PrefilledTxs {
		w.putVarInt(uint64(ptx.Index))
		ptx.Tx.encode(w, true)
	}
	return nil
}

// Command returns the protocol command string.
func (msg *MsgCmpctBlock) Command() string { return CmdCmpctBlock }

// MaxPayloadLength returns the maximum payload a CMPCTBLOCK message can be.
func (msg *MsgCmpctBlock) MaxPayloadLength(uint32) uint32 { return MaxBlockPayload }

// MsgGetBlockTxn implements the Message interface and represents a
// GETBLOCKTXN message (BIP152) requesting transactions of a compact block by
// differentially-encoded index. Out-of-bounds indices score 100 per Table I
// ("GETBLOCKTXN: Out-of-bounds transaction indices") — bounds are checked by
// the node against the referenced block, not at decode time.
type MsgGetBlockTxn struct {
	BlockHash chainhash.Hash
	// Indexes are absolute transaction indexes (differential on the wire).
	Indexes []uint32
}

var _ Message = (*MsgGetBlockTxn)(nil)

// NewMsgGetBlockTxn returns a GETBLOCKTXN for the given block.
func NewMsgGetBlockTxn(blockHash *chainhash.Hash, indexes []uint32) *MsgGetBlockTxn {
	return &MsgGetBlockTxn{BlockHash: *blockHash, Indexes: indexes}
}

// BtcDecode decodes the GETBLOCKTXN message, converting differential indexes
// to absolute ones.
func (msg *MsgGetBlockTxn) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.BlockHash = d.hash()
	count := d.count("indexes", maxShortIDsPerBlock, 1)
	msg.Indexes = make([]uint32, 0, count)
	offset := uint64(0)
	for ; count > 0 && d.err == nil; count-- {
		diff := d.varInt()
		offset += diff
		if diff > 0xffffffff || offset > 0xffffffff {
			d.malformed("index overflow")
		}
		msg.Indexes = append(msg.Indexes, uint32(offset))
		offset++
	}
	return d.err
}

// BtcEncode encodes the GETBLOCKTXN message using differential indexes.
func (msg *MsgGetBlockTxn) BtcEncode(w *Buf, _ uint32) error {
	w.putHash(&msg.BlockHash)
	w.putVarInt(uint64(len(msg.Indexes)))
	prev := uint64(0)
	for i, idx := range msg.Indexes {
		cur := uint64(idx)
		if i > 0 && cur < prev {
			return messageError("MsgGetBlockTxn.BtcEncode", "indexes must be ascending")
		}
		w.putVarInt(cur - prev)
		prev = cur + 1
	}
	return nil
}

// Command returns the protocol command string.
func (msg *MsgGetBlockTxn) Command() string { return CmdGetBlockTxn }

// MaxPayloadLength returns the maximum payload a GETBLOCKTXN message can be.
func (msg *MsgGetBlockTxn) MaxPayloadLength(uint32) uint32 {
	return chainhash.HashSize + MaxVarIntPayload + maxShortIDsPerBlock*MaxVarIntPayload
}

// MsgBlockTxn implements the Message interface and represents a BLOCKTXN
// message (BIP152) answering GETBLOCKTXN with the requested transactions.
type MsgBlockTxn struct {
	BlockHash chainhash.Hash
	Txs       []*MsgTx
}

var _ Message = (*MsgBlockTxn)(nil)

// NewMsgBlockTxn returns a BLOCKTXN for the given block and transactions.
func NewMsgBlockTxn(blockHash *chainhash.Hash, txs []*MsgTx) *MsgBlockTxn {
	return &MsgBlockTxn{BlockHash: *blockHash, Txs: txs}
}

// BtcDecode decodes the BLOCKTXN message.
func (msg *MsgBlockTxn) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.BlockHash = d.hash()
	msg.Txs = readTxList(&d)
	return d.err
}

// BtcEncode encodes the BLOCKTXN message.
func (msg *MsgBlockTxn) BtcEncode(w *Buf, _ uint32) error {
	w.putHash(&msg.BlockHash)
	writeTxList(w, msg.Txs)
	return nil
}

// Command returns the protocol command string.
func (msg *MsgBlockTxn) Command() string { return CmdBlockTxn }

// MaxPayloadLength returns the maximum payload a BLOCKTXN message can be.
func (msg *MsgBlockTxn) MaxPayloadLength(uint32) uint32 { return MaxBlockPayload }
