package wire

import (
	"fmt"

	"banscore/internal/chainhash"
)

// Command strings for all 26 P2P messages of the developer reference.
const (
	CmdVersion     = "version"
	CmdVerAck      = "verack"
	CmdAddr        = "addr"
	CmdGetAddr     = "getaddr"
	CmdInv         = "inv"
	CmdGetData     = "getdata"
	CmdNotFound    = "notfound"
	CmdGetBlocks   = "getblocks"
	CmdGetHeaders  = "getheaders"
	CmdHeaders     = "headers"
	CmdTx          = "tx"
	CmdBlock       = "block"
	CmdMemPool     = "mempool"
	CmdPing        = "ping"
	CmdPong        = "pong"
	CmdReject      = "reject"
	CmdFilterLoad  = "filterload"
	CmdFilterAdd   = "filteradd"
	CmdFilterClear = "filterclear"
	CmdMerkleBlock = "merkleblock"
	CmdSendHeaders = "sendheaders"
	CmdFeeFilter   = "feefilter"
	CmdSendCmpct   = "sendcmpct"
	CmdCmpctBlock  = "cmpctblock"
	CmdGetBlockTxn = "getblocktxn"
	CmdBlockTxn    = "blocktxn"
)

// Transaction constants.
const (
	// TxVersion is the current default transaction version.
	TxVersion = 2

	// MaxTxInSequenceNum is the maximum sequence number a TxIn can carry.
	MaxTxInSequenceNum uint32 = 0xffffffff

	// MaxPrevOutIndex is the maximum index an OutPoint can carry.
	MaxPrevOutIndex uint32 = 0xffffffff

	// maxTxPerMsg caps the transaction count sanity check during decode.
	maxTxPerMsg = 100000

	// maxScriptSize caps a script during decode.
	maxScriptSize = 10000

	// maxWitnessItemsPerInput / maxWitnessItemSize cap witness decode.
	maxWitnessItemsPerInput = 500000
	maxWitnessItemSize      = 11000

	// TxFlagMarker is the first byte of the optional segwit flag field.
	TxFlagMarker = 0x00

	// WitnessFlag indicates witness data is present.
	WitnessFlag = 0x01

	// MaxSatoshi is 21 million coins in satoshi units, the most a TxOut
	// value can hold.
	MaxSatoshi int64 = 21e6 * 1e8
)

// OutPoint identifies a previous transaction output.
type OutPoint struct {
	Hash  chainhash.Hash
	Index uint32
}

// NewOutPoint returns an OutPoint for the given hash and index.
func NewOutPoint(hash *chainhash.Hash, index uint32) *OutPoint {
	return &OutPoint{Hash: *hash, Index: index}
}

// String renders the outpoint as "hash:index".
func (o OutPoint) String() string {
	return fmt.Sprintf("%s:%d", o.Hash, o.Index)
}

// TxIn is a transaction input.
type TxIn struct {
	PreviousOutPoint OutPoint
	SignatureScript  []byte
	Witness          TxWitness
	Sequence         uint32
}

// NewTxIn returns a TxIn with the maximum sequence number.
func NewTxIn(prevOut *OutPoint, signatureScript []byte, witness TxWitness) *TxIn {
	return &TxIn{
		PreviousOutPoint: *prevOut,
		SignatureScript:  signatureScript,
		Witness:          witness,
		Sequence:         MaxTxInSequenceNum,
	}
}

// TxWitness is the witness stack of a single input.
type TxWitness [][]byte

// SerializeSize returns the wire size of the witness stack.
func (t TxWitness) SerializeSize() int {
	n := VarIntSerializeSize(uint64(len(t)))
	for _, item := range t {
		n += VarIntSerializeSize(uint64(len(item))) + len(item)
	}
	return n
}

// TxOut is a transaction output.
type TxOut struct {
	Value    int64
	PkScript []byte
}

// NewTxOut returns a TxOut with the given value and script.
func NewTxOut(value int64, pkScript []byte) *TxOut {
	return &TxOut{Value: value, PkScript: pkScript}
}

// MsgTx implements the Message interface and represents a Bitcoin TX message
// (and the transaction structure embedded in blocks).
type MsgTx struct {
	Version  int32
	TxIn     []*TxIn
	TxOut    []*TxOut
	LockTime uint32
}

var _ Message = (*MsgTx)(nil)

// NewMsgTx returns an empty transaction of the given version.
func NewMsgTx(version int32) *MsgTx {
	return &MsgTx{Version: version}
}

// AddTxIn appends a transaction input.
func (msg *MsgTx) AddTxIn(ti *TxIn) { msg.TxIn = append(msg.TxIn, ti) }

// AddTxOut appends a transaction output.
func (msg *MsgTx) AddTxOut(to *TxOut) { msg.TxOut = append(msg.TxOut, to) }

// HasWitness reports whether any input carries witness data.
func (msg *MsgTx) HasWitness() bool {
	for _, ti := range msg.TxIn {
		if len(ti.Witness) != 0 {
			return true
		}
	}
	return false
}

// TxHash computes the transaction id: the double-SHA256 of the transaction
// serialized without witness data.
func (msg *MsgTx) TxHash() chainhash.Hash { return msg.hash(false) }

// WitnessHash computes wtxid: the double-SHA256 including witness data. For
// transactions without witnesses this equals TxHash.
func (msg *MsgTx) WitnessHash() chainhash.Hash { return msg.hash(true) }

func (msg *MsgTx) hash(withWitness bool) chainhash.Hash {
	buf := GetBuf(0)
	msg.encode(buf, withWitness)
	h := chainhash.DoubleHashH(buf.Bytes())
	buf.Release()
	return h
}

// Copy returns a deep copy of the transaction.
func (msg *MsgTx) Copy() *MsgTx {
	newTx := MsgTx{
		Version:  msg.Version,
		LockTime: msg.LockTime,
		TxIn:     make([]*TxIn, 0, len(msg.TxIn)),
		TxOut:    make([]*TxOut, 0, len(msg.TxOut)),
	}
	for _, oldIn := range msg.TxIn {
		newIn := TxIn{
			PreviousOutPoint: oldIn.PreviousOutPoint,
			Sequence:         oldIn.Sequence,
			SignatureScript:  append([]byte(nil), oldIn.SignatureScript...),
		}
		if len(oldIn.Witness) != 0 {
			newIn.Witness = make(TxWitness, len(oldIn.Witness))
			for i, item := range oldIn.Witness {
				newIn.Witness[i] = append([]byte(nil), item...)
			}
		}
		newTx.TxIn = append(newTx.TxIn, &newIn)
	}
	for _, oldOut := range msg.TxOut {
		newTx.TxOut = append(newTx.TxOut, &TxOut{
			Value:    oldOut.Value,
			PkScript: append([]byte(nil), oldOut.PkScript...),
		})
	}
	return &newTx
}

// Wire sizes of the smallest transaction parts: an input with an empty
// script, an output with an empty script, and a transaction with neither.
const (
	minTxInSize  = chainhash.HashSize + 4 + 1 + 4
	minTxOutSize = 8 + 1
	minTxSize    = 4 + 1 + 1 + 4
)

// BtcDecode decodes the transaction.
func (msg *MsgTx) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.decode(&d)
	return d.err
}

// decode reads one transaction off d, which BLOCK, CMPCTBLOCK and BLOCKTXN
// share with the transactions around it.
func (msg *MsgTx) decode(d *decoder) {
	msg.Version = int32(d.uint32())

	// A count of zero with a following WitnessFlag byte indicates a
	// segwit-serialized transaction.
	count := d.count("transaction inputs", maxTxPerMsg, minTxInSize)
	witness := count == TxFlagMarker
	if witness {
		if flag := d.uint8(); flag != WitnessFlag {
			d.malformed("witness tx but flag byte is %x", flag)
		}
		count = d.count("transaction inputs", maxTxPerMsg, minTxInSize)
	}
	msg.TxIn = make([]*TxIn, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		ti := &TxIn{}
		ti.PreviousOutPoint.Hash = d.hash()
		ti.PreviousOutPoint.Index = d.uint32()
		ti.SignatureScript = d.varBytes("transaction input signature script", maxScriptSize)
		ti.Sequence = d.uint32()
		msg.TxIn = append(msg.TxIn, ti)
	}

	count = d.count("transaction outputs", maxTxPerMsg, minTxOutSize)
	msg.TxOut = make([]*TxOut, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		to := &TxOut{Value: int64(d.uint64())}
		to.PkScript = d.varBytes("transaction output public key script", maxScriptSize)
		msg.TxOut = append(msg.TxOut, to)
	}

	if witness {
		for _, ti := range msg.TxIn {
			count = d.count("witness items", maxWitnessItemsPerInput, 1)
			ti.Witness = make(TxWitness, 0, count)
			for ; count > 0 && d.err == nil; count-- {
				ti.Witness = append(ti.Witness, d.varBytes("script witness item", maxWitnessItemSize))
			}
		}
	}
	msg.LockTime = d.uint32()
}

// BtcEncode encodes the transaction, including witness data if present.
func (msg *MsgTx) BtcEncode(w *Buf, _ uint32) error {
	msg.encode(w, true)
	return nil
}

func (msg *MsgTx) encode(w *Buf, withWitness bool) {
	w.putUint32(uint32(msg.Version))
	doWitness := withWitness && msg.HasWitness()
	if doWitness {
		w.putUint8(TxFlagMarker)
		w.putUint8(WitnessFlag)
	}
	w.putVarInt(uint64(len(msg.TxIn)))
	for _, ti := range msg.TxIn {
		w.putHash(&ti.PreviousOutPoint.Hash)
		w.putUint32(ti.PreviousOutPoint.Index)
		w.putVarBytes(ti.SignatureScript)
		w.putUint32(ti.Sequence)
	}
	w.putVarInt(uint64(len(msg.TxOut)))
	for _, to := range msg.TxOut {
		w.putUint64(uint64(to.Value))
		w.putVarBytes(to.PkScript)
	}
	if doWitness {
		for _, ti := range msg.TxIn {
			w.putVarInt(uint64(len(ti.Witness)))
			for _, item := range ti.Witness {
				w.putVarBytes(item)
			}
		}
	}
	w.putUint32(msg.LockTime)
}

// baseSize is the serialized size without witness data.
func (msg *MsgTx) baseSize() int {
	n := 8 + VarIntSerializeSize(uint64(len(msg.TxIn))) + VarIntSerializeSize(uint64(len(msg.TxOut)))
	for _, ti := range msg.TxIn {
		n += 40 + VarIntSerializeSize(uint64(len(ti.SignatureScript))) + len(ti.SignatureScript)
	}
	for _, to := range msg.TxOut {
		n += 8 + VarIntSerializeSize(uint64(len(to.PkScript))) + len(to.PkScript)
	}
	return n
}

// SerializeSize returns the full serialized size including witness data.
func (msg *MsgTx) SerializeSize() int {
	n := msg.baseSize()
	if msg.HasWitness() {
		n += 2
		for _, ti := range msg.TxIn {
			n += ti.Witness.SerializeSize()
		}
	}
	return n
}

// Command returns the protocol command string.
func (msg *MsgTx) Command() string { return CmdTx }

// MaxPayloadLength returns the maximum payload a TX message can be.
func (msg *MsgTx) MaxPayloadLength(uint32) uint32 { return MaxBlockPayload }
