package wire

// hardMaxBlockHeadersPerMsg is the decode-time cap for HEADERS, above the
// MaxBlockHeadersPerMsg policy limit so oversize HEADERS reach the ban-score
// rules (+20 per Table I).
const hardMaxBlockHeadersPerMsg = 5 * MaxBlockHeadersPerMsg

// MsgHeaders implements the Message interface and represents a HEADERS
// message answering GETHEADERS.
type MsgHeaders struct {
	Headers []*BlockHeader
}

var _ Message = (*MsgHeaders)(nil)

// NewMsgHeaders returns an empty HEADERS message.
func NewMsgHeaders() *MsgHeaders { return &MsgHeaders{} }

// AddBlockHeader appends a header.
func (msg *MsgHeaders) AddBlockHeader(bh *BlockHeader) {
	msg.Headers = append(msg.Headers, bh)
}

// BtcDecode decodes the HEADERS message. Each entry is a header followed by
// a transaction count which must be zero.
func (msg *MsgHeaders) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	count := d.count("headers", hardMaxBlockHeadersPerMsg, BlockHeaderLen+1)
	msg.Headers = make([]*BlockHeader, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		bh := &BlockHeader{}
		readBlockHeader(&d, bh)
		if txCount := d.varInt(); txCount > 0 {
			d.malformed("block headers may not contain transactions [count %d]", txCount)
		}
		msg.Headers = append(msg.Headers, bh)
	}
	return d.err
}

// BtcEncode encodes the HEADERS message without enforcing the policy limit.
func (msg *MsgHeaders) BtcEncode(w *Buf, _ uint32) error {
	w.putVarInt(uint64(len(msg.Headers)))
	for _, bh := range msg.Headers {
		writeBlockHeader(w, bh)
		w.putVarInt(0)
	}
	return nil
}

// Command returns the protocol command string.
func (msg *MsgHeaders) Command() string { return CmdHeaders }

// MaxPayloadLength returns the maximum payload a HEADERS message can be.
func (msg *MsgHeaders) MaxPayloadLength(uint32) uint32 {
	return MaxVarIntPayload + hardMaxBlockHeadersPerMsg*(BlockHeaderLen+1)
}
