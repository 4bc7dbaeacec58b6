package wire

// MsgPing implements the Message interface and represents a PING message.
// PING carries no ban-score rule in any studied Bitcoin Core version, which
// is exactly why the paper's BM-DoS vector 1 floods with it.
type MsgPing struct {
	// Nonce to be echoed in the matching PONG.
	Nonce uint64
}

var _ Message = (*MsgPing)(nil)

// NewMsgPing returns a PING carrying the given nonce.
func NewMsgPing(nonce uint64) *MsgPing { return &MsgPing{Nonce: nonce} }

// BtcDecode decodes the PING message.
func (msg *MsgPing) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.Nonce = d.uint64()
	return d.err
}

// BtcEncode encodes the PING message.
func (msg *MsgPing) BtcEncode(w *Buf, _ uint32) error {
	w.putUint64(msg.Nonce)
	return nil
}

// Command returns the protocol command string.
func (msg *MsgPing) Command() string { return CmdPing }

// MaxPayloadLength returns the maximum payload a PING message can be.
func (msg *MsgPing) MaxPayloadLength(uint32) uint32 { return 8 }

// MsgPong implements the Message interface and represents a PONG message
// answering a PING with its nonce.
type MsgPong struct {
	Nonce uint64
}

var _ Message = (*MsgPong)(nil)

// NewMsgPong returns a PONG echoing the given nonce.
func NewMsgPong(nonce uint64) *MsgPong { return &MsgPong{Nonce: nonce} }

// BtcDecode decodes the PONG message.
func (msg *MsgPong) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.Nonce = d.uint64()
	return d.err
}

// BtcEncode encodes the PONG message.
func (msg *MsgPong) BtcEncode(w *Buf, _ uint32) error {
	w.putUint64(msg.Nonce)
	return nil
}

// Command returns the protocol command string.
func (msg *MsgPong) Command() string { return CmdPong }

// MaxPayloadLength returns the maximum payload a PONG message can be.
func (msg *MsgPong) MaxPayloadLength(uint32) uint32 { return 8 }
