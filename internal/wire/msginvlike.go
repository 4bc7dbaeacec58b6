package wire

// hardMaxInvPerMsg is the decode-time cap for inventory-carrying messages;
// like hardMaxAddrPerMsg it sits above the MaxInvPerMsg policy limit so
// oversize INV/GETDATA reach the ban-score rules (+20 per Table I).
const hardMaxInvPerMsg = 4 * MaxInvPerMsg

// invListMessage is the shared body of INV, GETDATA and NOTFOUND.
type invListMessage struct {
	InvList []*InvVect
}

// AddInvVect appends an inventory vector.
func (msg *invListMessage) AddInvVect(iv *InvVect) {
	msg.InvList = append(msg.InvList, iv)
}

// BtcDecode decodes the inventory list.
func (msg *invListMessage) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	count := d.count("inventory vectors", hardMaxInvPerMsg, invVectSerializeSize)
	msg.InvList = make([]*InvVect, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		iv := &InvVect{}
		readInvVect(&d, iv)
		msg.InvList = append(msg.InvList, iv)
	}
	return d.err
}

// BtcEncode encodes the inventory list without enforcing the policy limit,
// so the attacker toolkit can emit oversize messages.
func (msg *invListMessage) BtcEncode(w *Buf, _ uint32) error {
	w.putVarInt(uint64(len(msg.InvList)))
	for _, iv := range msg.InvList {
		writeInvVect(w, iv)
	}
	return nil
}

// MaxPayloadLength returns the maximum payload for inventory messages.
func (msg *invListMessage) MaxPayloadLength(uint32) uint32 {
	return MaxVarIntPayload + hardMaxInvPerMsg*invVectSerializeSize
}

// MsgInv implements the Message interface and represents an INV message
// advertising objects the sender has.
type MsgInv struct{ invListMessage }

// NewMsgInv returns an empty INV message.
func NewMsgInv() *MsgInv { return &MsgInv{} }

// Command returns the protocol command string.
func (*MsgInv) Command() string { return CmdInv }

// MsgGetData implements the Message interface and represents a GETDATA
// message requesting objects by inventory vector.
type MsgGetData struct{ invListMessage }

// NewMsgGetData returns an empty GETDATA message.
func NewMsgGetData() *MsgGetData { return &MsgGetData{} }

// Command returns the protocol command string.
func (*MsgGetData) Command() string { return CmdGetData }

// MsgNotFound implements the Message interface and represents a NOTFOUND
// message answering a GETDATA for unknown objects.
type MsgNotFound struct{ invListMessage }

// NewMsgNotFound returns an empty NOTFOUND message.
func NewMsgNotFound() *MsgNotFound { return &MsgNotFound{} }

// Command returns the protocol command string.
func (*MsgNotFound) Command() string { return CmdNotFound }

var (
	_ Message = (*MsgInv)(nil)
	_ Message = (*MsgGetData)(nil)
	_ Message = (*MsgNotFound)(nil)
)
