package wire

// hardMaxAddrPerMsg is the decode-time cap for ADDR messages. It is
// deliberately far above the MaxAddrPerMsg policy limit so oversize ADDR
// messages reach the node's misbehavior tracking (which scores them 20 per
// Table I) instead of dying in deserialization.
const hardMaxAddrPerMsg = 50 * MaxAddrPerMsg

// MsgAddr implements the Message interface and represents an ADDR message
// advertising known peers.
type MsgAddr struct {
	AddrList []*NetAddress
}

var _ Message = (*MsgAddr)(nil)

// NewMsgAddr returns an empty ADDR message.
func NewMsgAddr() *MsgAddr { return &MsgAddr{} }

// AddAddress appends an address.
func (msg *MsgAddr) AddAddress(na *NetAddress) {
	msg.AddrList = append(msg.AddrList, na)
}

// BtcDecode decodes the ADDR message.
func (msg *MsgAddr) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	count := d.count("addresses", hardMaxAddrPerMsg, maxNetAddressPayload)
	msg.AddrList = make([]*NetAddress, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		na := &NetAddress{}
		readNetAddress(&d, na, true)
		msg.AddrList = append(msg.AddrList, na)
	}
	return d.err
}

// BtcEncode encodes the ADDR message. Encoding does not enforce the policy
// limit: the attacker toolkit must be able to emit oversize messages.
func (msg *MsgAddr) BtcEncode(w *Buf, _ uint32) error {
	w.putVarInt(uint64(len(msg.AddrList)))
	for _, na := range msg.AddrList {
		writeNetAddress(w, na, true)
	}
	return nil
}

// Command returns the protocol command string.
func (msg *MsgAddr) Command() string { return CmdAddr }

// MaxPayloadLength returns the maximum payload an ADDR message can be. It is
// sized from the hard cap so oversize-but-parseable attacks pass framing.
func (msg *MsgAddr) MaxPayloadLength(uint32) uint32 {
	return MaxVarIntPayload + hardMaxAddrPerMsg*maxNetAddressPayload
}
