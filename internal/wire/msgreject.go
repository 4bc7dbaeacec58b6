package wire

import (
	"fmt"

	"banscore/internal/chainhash"
)

// RejectCode represents the numeric REJECT reason.
type RejectCode uint8

// Reject codes.
const (
	RejectMalformed       RejectCode = 0x01
	RejectInvalid         RejectCode = 0x10
	RejectObsolete        RejectCode = 0x11
	RejectDuplicate       RejectCode = 0x12
	RejectNonstandard     RejectCode = 0x40
	RejectDust            RejectCode = 0x41
	RejectInsufficientFee RejectCode = 0x42
	RejectCheckpoint      RejectCode = 0x43
)

// String returns the RejectCode in human-readable form.
func (code RejectCode) String() string {
	switch code {
	case RejectMalformed:
		return "REJECT_MALFORMED"
	case RejectInvalid:
		return "REJECT_INVALID"
	case RejectObsolete:
		return "REJECT_OBSOLETE"
	case RejectDuplicate:
		return "REJECT_DUPLICATE"
	case RejectNonstandard:
		return "REJECT_NONSTANDARD"
	case RejectDust:
		return "REJECT_DUST"
	case RejectInsufficientFee:
		return "REJECT_INSUFFICIENTFEE"
	case RejectCheckpoint:
		return "REJECT_CHECKPOINT"
	}
	return fmt.Sprintf("Unknown RejectCode (%d)", uint8(code))
}

// maxRejectReasonLen caps the reason string.
const maxRejectReasonLen = 250

// MsgReject implements the Message interface and represents a REJECT message
// informing a peer that one of its messages was rejected.
type MsgReject struct {
	// Cmd is the command of the rejected message.
	Cmd string

	// Code classifying the rejection.
	Code RejectCode

	// Reason in human-readable form.
	Reason string

	// Hash of the rejected tx or block, present only for tx/block rejects.
	Hash chainhash.Hash
}

var _ Message = (*MsgReject)(nil)

// NewMsgReject returns a REJECT message for the given command.
func NewMsgReject(command string, code RejectCode, reason string) *MsgReject {
	return &MsgReject{Cmd: command, Code: code, Reason: reason}
}

// BtcDecode decodes the REJECT message.
func (msg *MsgReject) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.Cmd = d.varString("rejected command", CommandSize)
	msg.Code = RejectCode(d.uint8())
	msg.Reason = d.varString("reject reason", maxRejectReasonLen)
	if msg.Cmd == CmdBlock || msg.Cmd == CmdTx {
		msg.Hash = d.hash()
	}
	return d.err
}

// BtcEncode encodes the REJECT message.
func (msg *MsgReject) BtcEncode(w *Buf, _ uint32) error {
	w.putVarString(msg.Cmd)
	w.putUint8(uint8(msg.Code))
	w.putVarString(msg.Reason)
	if msg.Cmd == CmdBlock || msg.Cmd == CmdTx {
		w.putHash(&msg.Hash)
	}
	return nil
}

// Command returns the protocol command string.
func (msg *MsgReject) Command() string { return CmdReject }

// MaxPayloadLength returns the maximum payload a REJECT message can be.
func (msg *MsgReject) MaxPayloadLength(uint32) uint32 {
	return MaxVarIntPayload + CommandSize + 1 + MaxVarIntPayload + maxRejectReasonLen + chainhash.HashSize
}

// MsgFeeFilter implements the Message interface and represents a FEEFILTER
// message (BIP133) announcing the minimum fee rate for relayed transactions.
type MsgFeeFilter struct {
	// MinFee in satoshi per kilobyte.
	MinFee int64
}

var _ Message = (*MsgFeeFilter)(nil)

// NewMsgFeeFilter returns a FEEFILTER carrying the given minimum fee.
func NewMsgFeeFilter(minFee int64) *MsgFeeFilter { return &MsgFeeFilter{MinFee: minFee} }

// BtcDecode decodes the FEEFILTER message.
func (msg *MsgFeeFilter) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.MinFee = int64(d.uint64())
	return d.err
}

// BtcEncode encodes the FEEFILTER message.
func (msg *MsgFeeFilter) BtcEncode(w *Buf, _ uint32) error {
	w.putUint64(uint64(msg.MinFee))
	return nil
}

// Command returns the protocol command string.
func (msg *MsgFeeFilter) Command() string { return CmdFeeFilter }

// MaxPayloadLength returns the maximum payload a FEEFILTER message can be.
func (msg *MsgFeeFilter) MaxPayloadLength(uint32) uint32 { return 8 }
