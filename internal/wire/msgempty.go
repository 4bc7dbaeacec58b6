package wire

// emptyMessage is the shared implementation of the five payload-less
// messages. Each concrete type still exists so a type switch on the decoded
// message is exhaustive and self-documenting.
type emptyMessage struct{}

func (emptyMessage) BtcDecode([]byte, uint32) error { return nil }
func (emptyMessage) BtcEncode(*Buf, uint32) error   { return nil }
func (emptyMessage) MaxPayloadLength(uint32) uint32 { return 0 }

// MsgVerAck implements the Message interface and represents a VERACK
// message, the acknowledgement half of the version handshake.
type MsgVerAck struct{ emptyMessage }

// Command returns the protocol command string.
func (*MsgVerAck) Command() string { return CmdVerAck }

// MsgGetAddr implements the Message interface and represents a GETADDR
// message requesting known peer addresses.
type MsgGetAddr struct{ emptyMessage }

// Command returns the protocol command string.
func (*MsgGetAddr) Command() string { return CmdGetAddr }

// MsgMemPool implements the Message interface and represents a MEMPOOL
// message requesting the contents of the peer's memory pool.
type MsgMemPool struct{ emptyMessage }

// Command returns the protocol command string.
func (*MsgMemPool) Command() string { return CmdMemPool }

// MsgSendHeaders implements the Message interface and represents a
// SENDHEADERS message (BIP130) asking for direct header announcements.
type MsgSendHeaders struct{ emptyMessage }

// Command returns the protocol command string.
func (*MsgSendHeaders) Command() string { return CmdSendHeaders }

// MsgFilterClear implements the Message interface and represents a
// FILTERCLEAR message removing the loaded bloom filter.
type MsgFilterClear struct{ emptyMessage }

// Command returns the protocol command string.
func (*MsgFilterClear) Command() string { return CmdFilterClear }

var (
	_ Message = (*MsgVerAck)(nil)
	_ Message = (*MsgGetAddr)(nil)
	_ Message = (*MsgMemPool)(nil)
	_ Message = (*MsgSendHeaders)(nil)
	_ Message = (*MsgFilterClear)(nil)
)
