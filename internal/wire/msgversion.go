package wire

import (
	"fmt"
	"time"
)

// MsgVersion implements the Message interface and represents a Bitcoin
// VERSION message, the first message of the version handshake.
type MsgVersion struct {
	// ProtocolVersion the sender speaks.
	ProtocolVersion int32

	// Services the sender supports.
	Services ServiceFlag

	// Timestamp at the sender (seconds on the wire).
	Timestamp time.Time

	// AddrYou is the address of the remote peer as seen by the sender.
	AddrYou NetAddress

	// AddrMe is the sender's own address.
	AddrMe NetAddress

	// Nonce to detect self connections.
	Nonce uint64

	// UserAgent of the sender.
	UserAgent string

	// LastBlock is the sender's best block height.
	LastBlock int32

	// DisableRelay requests no transaction relay (BIP37).
	DisableRelay bool
}

var _ Message = (*MsgVersion)(nil)

// NewMsgVersion returns a VERSION message with defaults for this package's
// protocol version.
func NewMsgVersion(me, you *NetAddress, nonce uint64, lastBlock int32) *MsgVersion {
	return &MsgVersion{
		ProtocolVersion: int32(ProtocolVersion),
		Services:        me.Services,
		Timestamp:       time.Unix(time.Now().Unix(), 0),
		AddrYou:         *you,
		AddrMe:          *me,
		Nonce:           nonce,
		UserAgent:       DefaultUserAgent,
		LastBlock:       lastBlock,
	}
}

// DefaultUserAgent mirrors the Satoshi 0.20.0 client string of the paper's
// testbed.
const DefaultUserAgent = "/Satoshi:0.20.0/"

// HasService reports whether the sender advertises the given service.
func (msg *MsgVersion) HasService(service ServiceFlag) bool {
	return msg.Services&service == service
}

// BtcDecode decodes the VERSION message. Fields past LastBlock are optional
// for old peers, matching the tolerant decoding of real nodes.
//
// It is reuse-safe: every field is parsed, bounds-checked and overwritten on
// each call, so a target that has decoded before reads exactly as a fresh one
// would. What such a target already owns is kept instead of re-allocated —
// the two addresses' IP storage (overwritten in place, so a target must not
// share it) and a UserAgent the wire bytes spell again.
//
//banlint:hotpath per-message on the duplicate-VERSION flood: a reused target decodes without allocating
func (msg *MsgVersion) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.ProtocolVersion = int32(d.uint32())
	msg.Services = ServiceFlag(d.uint64())
	msg.Timestamp = time.Unix(int64(d.uint64()), 0)
	readNetAddress(&d, &msg.AddrYou, false)
	readNetAddress(&d, &msg.AddrMe, false)
	msg.Nonce = d.uint64()
	msg.UserAgent = sameOrCopy(msg.UserAgent, d.varSlice("user agent", MaxUserAgentLen))
	msg.LastBlock = int32(d.uint32())
	// Relay flag is optional trailing data. Absent means relay, whatever a
	// reused target decoded last.
	msg.DisableRelay = d.remaining() > 0 && !d.bool()
	return d.err
}

// sameOrCopy returns held when it already spells b, and otherwise the one
// allocation BtcDecode cannot avoid: a copy of b, which aliases the payload.
func sameOrCopy(held string, b []byte) string {
	if held == string(b) {
		return held
	}
	return string(b)
}

// BtcEncode encodes the VERSION message.
func (msg *MsgVersion) BtcEncode(w *Buf, _ uint32) error {
	if len(msg.UserAgent) > MaxUserAgentLen {
		return messageError("MsgVersion.BtcEncode",
			fmt.Sprintf("user agent too long [len %d, max %d]", len(msg.UserAgent), MaxUserAgentLen))
	}
	w.putUint32(uint32(msg.ProtocolVersion))
	w.putUint64(uint64(msg.Services))
	w.putUint64(uint64(msg.Timestamp.Unix()))
	writeNetAddress(w, &msg.AddrYou, false)
	writeNetAddress(w, &msg.AddrMe, false)
	w.putUint64(msg.Nonce)
	w.putVarString(msg.UserAgent)
	w.putUint32(uint32(msg.LastBlock))
	w.putBool(!msg.DisableRelay)
	return nil
}

// Command returns the protocol command string.
func (msg *MsgVersion) Command() string { return CmdVersion }

// MaxPayloadLength returns the maximum payload a VERSION message can be.
func (msg *MsgVersion) MaxPayloadLength(uint32) uint32 {
	// version 4 + services 8 + timestamp 8 + two addresses + nonce 8 +
	// user agent + last block 4 + relay 1.
	return 4 + 8 + 8 + 2*(maxNetAddressPayload-4) + 8 + (MaxVarIntPayload + MaxUserAgentLen) + 4 + 1
}
