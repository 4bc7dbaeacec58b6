package wire

import (
	"fmt"

	"banscore/internal/chainhash"
)

// MaxBlockLocatorsPerMsg is the maximum number of block locator hashes in a
// GETBLOCKS or GETHEADERS message.
const MaxBlockLocatorsPerMsg = 500

// locatorMessage is the shared body of GETBLOCKS and GETHEADERS.
type locatorMessage struct {
	ProtocolVersion    uint32
	BlockLocatorHashes []*chainhash.Hash
	HashStop           chainhash.Hash
}

// AddBlockLocatorHash appends a locator hash, enforcing the protocol cap.
func (msg *locatorMessage) AddBlockLocatorHash(hash *chainhash.Hash) error {
	if len(msg.BlockLocatorHashes)+1 > MaxBlockLocatorsPerMsg {
		return messageError("AddBlockLocatorHash",
			fmt.Sprintf("too many block locator hashes [max %d]", MaxBlockLocatorsPerMsg))
	}
	msg.BlockLocatorHashes = append(msg.BlockLocatorHashes, hash)
	return nil
}

// BtcDecode decodes the locator message.
func (msg *locatorMessage) BtcDecode(payload []byte, _ uint32) error {
	d := decoder{b: payload}
	msg.ProtocolVersion = d.uint32()
	msg.BlockLocatorHashes = readHashList(&d, "block locator hashes", MaxBlockLocatorsPerMsg)
	msg.HashStop = d.hash()
	return d.err
}

// readHashList decodes a counted list of at most limit hashes.
func readHashList(d *decoder, what string, limit uint64) []*chainhash.Hash {
	count := d.count(what, limit, chainhash.HashSize)
	hashes := make([]*chainhash.Hash, 0, count)
	for ; count > 0 && d.err == nil; count-- {
		h := d.hash()
		hashes = append(hashes, &h)
	}
	return hashes
}

// BtcEncode encodes the locator message.
func (msg *locatorMessage) BtcEncode(w *Buf, _ uint32) error {
	if len(msg.BlockLocatorHashes) > MaxBlockLocatorsPerMsg {
		return messageError("locatorMessage.BtcEncode",
			fmt.Sprintf("too many block locator hashes [%d, max %d]",
				len(msg.BlockLocatorHashes), MaxBlockLocatorsPerMsg))
	}
	w.putUint32(msg.ProtocolVersion)
	writeHashList(w, msg.BlockLocatorHashes)
	w.putHash(&msg.HashStop)
	return nil
}

func writeHashList(w *Buf, hashes []*chainhash.Hash) {
	w.putVarInt(uint64(len(hashes)))
	for _, h := range hashes {
		w.putHash(h)
	}
}

// MaxPayloadLength returns the maximum payload for locator messages.
func (msg *locatorMessage) MaxPayloadLength(uint32) uint32 {
	return 4 + MaxVarIntPayload + (MaxBlockLocatorsPerMsg+1)*chainhash.HashSize
}

// MsgGetBlocks implements the Message interface and represents a GETBLOCKS
// message requesting block inventory after the locator.
type MsgGetBlocks struct{ locatorMessage }

// NewMsgGetBlocks returns a GETBLOCKS message with the given stop hash.
func NewMsgGetBlocks(hashStop *chainhash.Hash) *MsgGetBlocks {
	return &MsgGetBlocks{locatorMessage{
		ProtocolVersion: ProtocolVersion,
		HashStop:        *hashStop,
	}}
}

// Command returns the protocol command string.
func (*MsgGetBlocks) Command() string { return CmdGetBlocks }

// MsgGetHeaders implements the Message interface and represents a GETHEADERS
// message requesting headers after the locator.
type MsgGetHeaders struct{ locatorMessage }

// NewMsgGetHeaders returns an empty GETHEADERS message.
func NewMsgGetHeaders() *MsgGetHeaders {
	return &MsgGetHeaders{locatorMessage{ProtocolVersion: ProtocolVersion}}
}

// Command returns the protocol command string.
func (*MsgGetHeaders) Command() string { return CmdGetHeaders }

var (
	_ Message = (*MsgGetBlocks)(nil)
	_ Message = (*MsgGetHeaders)(nil)
)
