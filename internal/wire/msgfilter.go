package wire

import "fmt"

// Decode-time hard caps above the Table I policy limits so oversize filter
// messages reach the misbehavior tracking (both score 100 per Table I).
const (
	hardMaxFilterLoadFilterSize = 4 * MaxFilterLoadFilterSize
	hardMaxFilterAddDataSize    = 4 * MaxFilterAddDataSize
)

// BloomUpdateType specifies how the bloom filter is updated on matches.
type BloomUpdateType uint8

// Bloom update flags.
const (
	BloomUpdateNone         BloomUpdateType = 0
	BloomUpdateAll          BloomUpdateType = 1
	BloomUpdateP2PubkeyOnly BloomUpdateType = 2
)

// MsgFilterLoad implements the Message interface and represents a FILTERLOAD
// message (BIP37) installing a bloom filter on the connection.
type MsgFilterLoad struct {
	Filter    []byte
	HashFuncs uint32
	Tweak     uint32
	Flags     BloomUpdateType
}

var _ Message = (*MsgFilterLoad)(nil)

// NewMsgFilterLoad returns a FILTERLOAD with the given filter parameters.
func NewMsgFilterLoad(filter []byte, hashFuncs, tweak uint32, flags BloomUpdateType) *MsgFilterLoad {
	return &MsgFilterLoad{Filter: filter, HashFuncs: hashFuncs, Tweak: tweak, Flags: flags}
}

// BtcDecode decodes the FILTERLOAD message.
func (msg *MsgFilterLoad) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.Filter = d.varBytes("filterload filter", hardMaxFilterLoadFilterSize)
	msg.HashFuncs = d.uint32()
	msg.Tweak = d.uint32()
	msg.Flags = BloomUpdateType(d.uint8())
	return d.err
}

// BtcEncode encodes the FILTERLOAD message without enforcing the policy size.
func (msg *MsgFilterLoad) BtcEncode(w *Buf, _ uint32) error {
	if len(msg.Filter) > hardMaxFilterLoadFilterSize {
		return messageError("MsgFilterLoad.BtcEncode",
			fmt.Sprintf("filter size %d exceeds hard cap %d", len(msg.Filter), hardMaxFilterLoadFilterSize))
	}
	w.putVarBytes(msg.Filter)
	w.putUint32(msg.HashFuncs)
	w.putUint32(msg.Tweak)
	w.putUint8(uint8(msg.Flags))
	return nil
}

// Command returns the protocol command string.
func (msg *MsgFilterLoad) Command() string { return CmdFilterLoad }

// MaxPayloadLength returns the maximum payload a FILTERLOAD message can be.
func (msg *MsgFilterLoad) MaxPayloadLength(uint32) uint32 {
	return MaxVarIntPayload + hardMaxFilterLoadFilterSize + 4 + 4 + 1
}

// MsgFilterAdd implements the Message interface and represents a FILTERADD
// message (BIP37) adding a data element to the loaded bloom filter.
type MsgFilterAdd struct {
	Data []byte
}

var _ Message = (*MsgFilterAdd)(nil)

// NewMsgFilterAdd returns a FILTERADD carrying the given data element.
func NewMsgFilterAdd(data []byte) *MsgFilterAdd { return &MsgFilterAdd{Data: data} }

// BtcDecode decodes the FILTERADD message.
func (msg *MsgFilterAdd) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.Data = d.varBytes("filteradd data", hardMaxFilterAddDataSize)
	return d.err
}

// BtcEncode encodes the FILTERADD message without enforcing the policy size.
func (msg *MsgFilterAdd) BtcEncode(w *Buf, _ uint32) error {
	if len(msg.Data) > hardMaxFilterAddDataSize {
		return messageError("MsgFilterAdd.BtcEncode",
			fmt.Sprintf("data size %d exceeds hard cap %d", len(msg.Data), hardMaxFilterAddDataSize))
	}
	w.putVarBytes(msg.Data)
	return nil
}

// Command returns the protocol command string.
func (msg *MsgFilterAdd) Command() string { return CmdFilterAdd }

// MaxPayloadLength returns the maximum payload a FILTERADD message can be.
func (msg *MsgFilterAdd) MaxPayloadLength(uint32) uint32 {
	return MaxVarIntPayload + hardMaxFilterAddDataSize
}
