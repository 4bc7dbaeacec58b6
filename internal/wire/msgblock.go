package wire

import "banscore/internal/chainhash"

// MsgBlock implements the Message interface and represents a Bitcoin BLOCK
// message: a header followed by its transactions.
type MsgBlock struct {
	Header       BlockHeader
	Transactions []*MsgTx
}

var _ Message = (*MsgBlock)(nil)

// NewMsgBlock returns a block carrying the given header and no transactions.
func NewMsgBlock(header *BlockHeader) *MsgBlock {
	return &MsgBlock{Header: *header}
}

// AddTransaction appends a transaction to the block.
func (msg *MsgBlock) AddTransaction(tx *MsgTx) {
	msg.Transactions = append(msg.Transactions, tx)
}

// ClearTransactions removes all transactions.
func (msg *MsgBlock) ClearTransactions() {
	msg.Transactions = nil
}

// BlockHash returns the hash of the block header.
func (msg *MsgBlock) BlockHash() chainhash.Hash {
	return msg.Header.BlockHash()
}

// TxHashes returns the txid of every transaction, in block order.
func (msg *MsgBlock) TxHashes() []chainhash.Hash {
	hashes := make([]chainhash.Hash, len(msg.Transactions))
	for i, tx := range msg.Transactions {
		hashes[i] = tx.TxHash()
	}
	return hashes
}

// BtcDecode decodes the block.
func (msg *MsgBlock) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	readBlockHeader(&d, &msg.Header)
	msg.Transactions = readTxList(&d)
	return d.err
}

// readTxList decodes the counted transaction list BLOCK and BLOCKTXN end in.
func readTxList(d *decoder) []*MsgTx {
	count := d.count("transactions", maxTxPerMsg, minTxSize)
	txs := make([]*MsgTx, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		tx := &MsgTx{}
		tx.decode(d)
		txs = append(txs, tx)
	}
	return txs
}

// BtcEncode encodes the block.
func (msg *MsgBlock) BtcEncode(w *Buf, _ uint32) error {
	writeBlockHeader(w, &msg.Header)
	writeTxList(w, msg.Transactions)
	return nil
}

func writeTxList(w *Buf, txs []*MsgTx) {
	w.putVarInt(uint64(len(txs)))
	for _, tx := range txs {
		tx.encode(w, true)
	}
}

// SerializeSize returns the serialized size of the block.
func (msg *MsgBlock) SerializeSize() int {
	n := BlockHeaderLen + VarIntSerializeSize(uint64(len(msg.Transactions)))
	for _, tx := range msg.Transactions {
		n += tx.SerializeSize()
	}
	return n
}

// Command returns the protocol command string.
func (msg *MsgBlock) Command() string { return CmdBlock }

// MaxPayloadLength returns the maximum payload a BLOCK message can be.
func (msg *MsgBlock) MaxPayloadLength(uint32) uint32 { return MaxBlockPayload }
