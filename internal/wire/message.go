package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"

	"banscore/internal/chainhash"
)

// MessageHeaderSize is the size of the fixed message header: 4 bytes magic,
// 12 bytes command, 4 bytes payload length, 4 bytes checksum.
const MessageHeaderSize = 24

// CommandSize is the fixed, NUL-padded size of the command field.
const CommandSize = 12

// ErrChecksumMismatch is returned by ReadMessage when the payload checksum
// does not match the header. This failure is detected by the transport
// framing *before* any application-layer processing, so — exactly as the
// paper's attack vector 2 exploits — it is dropped without increasing the
// sender's ban score.
var ErrChecksumMismatch = errors.New("payload checksum mismatch")

// ChecksumError is the ErrChecksumMismatch the decoder returns: one small
// value per bogus frame, formatted only if someone asks for the text. The
// flood that provokes it is attacker-paced, so the drop path must not pay
// for a message nobody reads.
type ChecksumError struct {
	Command string
	// Got is the checksum the header claimed, Want the one the payload
	// hashes to.
	Got, Want [4]byte
}

// Error implements the error interface.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("command %q: %v (got %x, want %x)",
		e.Command, ErrChecksumMismatch, e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrChecksumMismatch) hold.
func (e *ChecksumError) Unwrap() error { return ErrChecksumMismatch }

// ErrUnknownCommand is returned by ReadMessage for a syntactically valid
// header naming a command this implementation does not know. Bitcoin Core
// ignores unknown commands without scoring, another score-free vector.
type ErrUnknownCommand struct {
	Command string
}

// Error implements the error interface.
func (e *ErrUnknownCommand) Error() string {
	return fmt.Sprintf("unknown command %q", e.Command)
}

// Message is the interface every Bitcoin P2P message implements. Below the
// frame layer there is no io: BtcDecode is handed a complete payload whose
// length and checksum the frame layer has already verified — usually a pooled
// buffer, so the decoded message must copy what it keeps and alias nothing —
// and BtcEncode appends to the pooled buffer the frame is built in, whose
// writes cannot fail, so its only errors are defects of the message itself.
type Message interface {
	BtcDecode(payload []byte, pver uint32) error
	BtcEncode(w *Buf, pver uint32) error
	Command() string
	MaxPayloadLength(pver uint32) uint32
}

// commandNames interns the NUL-padded command field of every known message
// so the steady-state header parse resolves commands with a map probe
// instead of allocating a fresh string per message.
var commandNames = map[[CommandSize]byte]string{}

func init() {
	for _, cmd := range []string{
		CmdVersion, CmdVerAck, CmdAddr, CmdGetAddr, CmdInv, CmdGetData,
		CmdNotFound, CmdGetBlocks, CmdGetHeaders, CmdHeaders, CmdTx,
		CmdBlock, CmdMemPool, CmdPing, CmdPong, CmdReject, CmdFilterLoad,
		CmdFilterAdd, CmdFilterClear, CmdMerkleBlock, CmdSendHeaders,
		CmdFeeFilter, CmdSendCmpct, CmdCmpctBlock, CmdGetBlockTxn,
		CmdBlockTxn,
	} {
		var k [CommandSize]byte
		copy(k[:], cmd)
		commandNames[k] = cmd
	}
}

// makeEmptyMessage creates a zero message of the proper concrete type for the
// given command.
func makeEmptyMessage(command string) (Message, error) {
	switch command {
	case CmdVersion:
		return &MsgVersion{}, nil
	case CmdVerAck:
		return &MsgVerAck{}, nil
	case CmdAddr:
		return &MsgAddr{}, nil
	case CmdGetAddr:
		return &MsgGetAddr{}, nil
	case CmdInv:
		return &MsgInv{}, nil
	case CmdGetData:
		return &MsgGetData{}, nil
	case CmdNotFound:
		return &MsgNotFound{}, nil
	case CmdGetBlocks:
		return &MsgGetBlocks{}, nil
	case CmdGetHeaders:
		return &MsgGetHeaders{}, nil
	case CmdHeaders:
		return &MsgHeaders{}, nil
	case CmdTx:
		return &MsgTx{}, nil
	case CmdBlock:
		return &MsgBlock{}, nil
	case CmdMemPool:
		return &MsgMemPool{}, nil
	case CmdPing:
		return &MsgPing{}, nil
	case CmdPong:
		return &MsgPong{}, nil
	case CmdReject:
		return &MsgReject{}, nil
	case CmdFilterLoad:
		return &MsgFilterLoad{}, nil
	case CmdFilterAdd:
		return &MsgFilterAdd{}, nil
	case CmdFilterClear:
		return &MsgFilterClear{}, nil
	case CmdMerkleBlock:
		return &MsgMerkleBlock{}, nil
	case CmdSendHeaders:
		return &MsgSendHeaders{}, nil
	case CmdFeeFilter:
		return &MsgFeeFilter{}, nil
	case CmdSendCmpct:
		return &MsgSendCmpct{}, nil
	case CmdCmpctBlock:
		return &MsgCmpctBlock{}, nil
	case CmdGetBlockTxn:
		return &MsgGetBlockTxn{}, nil
	case CmdBlockTxn:
		return &MsgBlockTxn{}, nil
	}
	return nil, &ErrUnknownCommand{Command: command}
}

// messageHeader is the decoded fixed header.
type messageHeader struct {
	magic    BitcoinNet
	command  string
	length   uint32
	checksum [4]byte
}

// Codec decodes and encodes framed messages for one connection. It owns the
// header scratch buffer that would otherwise escape to the heap on every
// message, making the steady-state receive path allocation-free. A Codec is
// not safe for concurrent use; each peer connection embeds its own.
type Codec struct {
	hdr [MessageHeaderSize]byte
}

// LastChecksum returns the wire checksum of the most recently decoded
// message's payload, straight from the codec's header scratch. Valid only
// between a successful DecodeMessage and the next read; the peer layer
// snapshots it immediately after decode as misbehavior evidence — the same
// 4 bytes the node already verified against the payload, re-used instead of
// re-hashed.
func (c *Codec) LastChecksum() [4]byte {
	var sum [4]byte
	copy(sum[:], c.hdr[20:24])
	return sum
}

// parseHeader decodes the fixed header out of the codec's scratch buffer.
func (c *Codec) parseHeader() messageHeader {
	var hdr messageHeader
	hdr.magic = BitcoinNet(binary.LittleEndian.Uint32(c.hdr[0:4]))
	var cmd [CommandSize]byte
	copy(cmd[:], c.hdr[4:16])
	if name, ok := commandNames[cmd]; ok {
		hdr.command = name
	} else {
		hdr.command = string(bytes.TrimRight(cmd[:], "\x00"))
	}
	hdr.length = binary.LittleEndian.Uint32(c.hdr[16:20])
	copy(hdr.checksum[:], c.hdr[20:24])
	return hdr
}

// DecodeMessage reads, validates, and decodes the next message from r.
// On success it returns the message and its raw payload as a pooled buffer
// the caller MUST Release (or Detach) exactly once. The validation order
// mirrors a real node: magic, command sanity, length, THEN checksum, THEN
// payload decode — so checksum failures never reach message processing.
//
// pick, when non-nil, is consulted before makeEmptyMessage and may return a
// reusable decode target for the command (or nil to fall through). Only
// messages the caller never retains past its handler — in practice the
// ping/pong flood shape — are safe to reuse.
//
// A decode (BtcDecode) failure returns (nil, buf, err) with a non-nil
// buffer so the caller can distinguish malformed-payload errors, which are
// scored, from framing errors, which are not; the buffer must still be
// released. All other failures return a nil buffer.
//
//banlint:hotpath per-message flood path: header scratch + pooled payload, no per-call allocation
func (c *Codec) DecodeMessage(r io.Reader, pver uint32, bnet BitcoinNet, pick func(command string) Message) (Message, *Buf, error) {
	if _, err := io.ReadFull(r, c.hdr[:]); err != nil {
		return nil, nil, err
	}
	hdr := c.parseHeader()
	if hdr.magic != bnet {
		return nil, nil, messageError("ReadMessage",
			fmt.Sprintf("message from other network [%v]", hdr.magic))
	}
	if !utf8.ValidString(hdr.command) {
		return nil, nil, messageError("ReadMessage", "invalid command")
	}
	if hdr.length > MaxMessagePayload {
		return nil, nil, messageError("ReadMessage",
			fmt.Sprintf("payload %d exceeds max %d", hdr.length, MaxMessagePayload))
	}

	var msg Message
	if pick != nil {
		msg = pick(hdr.command)
	}
	if msg == nil {
		var err error
		msg, err = makeEmptyMessage(hdr.command)
		if err != nil {
			// Unknown command: drain the payload so the stream stays in
			// sync, then report. The caller ignores these without scoring.
			if _, cErr := io.CopyN(io.Discard, r, int64(hdr.length)); cErr != nil {
				return nil, nil, cErr
			}
			return nil, nil, err
		}
	}
	if maxLen := msg.MaxPayloadLength(pver); hdr.length > maxLen {
		if _, cErr := io.CopyN(io.Discard, r, int64(hdr.length)); cErr != nil {
			return nil, nil, cErr
		}
		return nil, nil, messageError("ReadMessage",
			fmt.Sprintf("payload %d exceeds max for %q [%d]", hdr.length, hdr.command, maxLen))
	}

	buf := GetBuf(int(hdr.length))
	if _, err := io.ReadFull(r, buf.Bytes()); err != nil {
		buf.Release()
		return nil, nil, err
	}

	if checksum := chainhash.Checksum4(buf.Bytes()); checksum != hdr.checksum {
		buf.Release()
		return nil, nil, &ChecksumError{Command: hdr.command, Got: hdr.checksum, Want: checksum}
	}

	if err := msg.BtcDecode(buf.Bytes(), pver); err != nil {
		return nil, buf, err
	}
	return msg, buf, nil
}

// ReadMessage reads, validates, and decodes the next message from r. It is
// the Release-free compatibility form of Codec.DecodeMessage: the returned
// payload is detached from the pool, so callers own it outright with no
// further obligation. Hot paths should hold a Codec instead.
func ReadMessage(r io.Reader, pver uint32, net BitcoinNet) (Message, []byte, error) {
	var c Codec
	msg, buf, err := c.DecodeMessage(r, pver, net, nil)
	return msg, buf.Detach(), err
}

// AppendMessage appends msg, framed with a full header for the given network,
// to buf — the one framing body: a send path that owes a peer several
// messages appends them to one buffer and writes them out together. On error
// buf is left as it was given.
//
//banlint:hotpath per-message send path: appended to the caller's pooled buffer, header written in place
func AppendMessage(buf *Buf, msg Message, pver uint32, net BitcoinNet) error {
	command := msg.Command()
	if len(command) > CommandSize {
		return messageError("WriteMessage", fmt.Sprintf("command %q too long", command))
	}

	start := buf.Len()
	var header [MessageHeaderSize]byte
	buf.putBytes(header[:])
	if err := msg.BtcEncode(buf, pver); err != nil {
		buf.b = buf.b[:start]
		return err
	}
	// Sliced only now: the encoder may have moved the buffer to a larger class.
	frame := buf.b[start:]
	body := frame[MessageHeaderSize:]
	if len(body) > MaxMessagePayload {
		buf.b = buf.b[:start]
		return messageError("WriteMessage",
			fmt.Sprintf("payload %d exceeds max %d", len(body), MaxMessagePayload))
	}
	if maxLen := msg.MaxPayloadLength(pver); uint32(len(body)) > maxLen {
		buf.b = buf.b[:start]
		return messageError("WriteMessage",
			fmt.Sprintf("payload %d exceeds max for %q [%d]", len(body), command, maxLen))
	}

	binary.LittleEndian.PutUint32(frame[0:4], uint32(net))
	copy(frame[4:16], command)
	binary.LittleEndian.PutUint32(frame[16:20], uint32(len(body)))
	checksum := chainhash.Checksum4(body)
	copy(frame[20:24], checksum[:])
	return nil
}

// EncodeMessage serializes msg with a full header into a pooled buffer for
// the given network. The caller owns the returned buffer and MUST Release
// (or Detach) it exactly once after writing it out.
//
//banlint:hotpath per-message send path: one pooled buffer, framed by AppendMessage
func EncodeMessage(msg Message, pver uint32, net BitcoinNet) (*Buf, error) {
	buf := GetBuf(0)
	if err := AppendMessage(buf, msg, pver, net); err != nil {
		buf.Release()
		return nil, err
	}
	return buf, nil
}

// WriteMessage serializes msg with a full header to w for the given network.
// It returns the total number of bytes written.
func WriteMessage(w io.Writer, msg Message, pver uint32, net BitcoinNet) (int, error) {
	buf, err := EncodeMessage(msg, pver, net)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(buf.Bytes())
	buf.Release()
	return n, err
}

// WriteRawMessage frames an arbitrary payload under the given command with a
// correct checksum. It is what both the node and the attacker use; attackers
// forging *incorrect* checksums use WriteRawMessageChecksum directly.
func WriteRawMessage(w io.Writer, command string, payload []byte, net BitcoinNet) (int, error) {
	return WriteRawMessageChecksum(w, command, payload, net, chainhash.Checksum4(payload))
}

// WriteRawMessageChecksum frames a payload with a caller-supplied checksum,
// allowing the deliberate corruption used by the paper's bogus-message attack
// vector.
func WriteRawMessageChecksum(w io.Writer, command string, payload []byte, net BitcoinNet, checksum [4]byte) (int, error) {
	var header [MessageHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(net))
	copy(header[4:16], command)
	binary.LittleEndian.PutUint32(header[16:20], uint32(len(payload)))
	copy(header[20:24], checksum[:])

	n, err := w.Write(header[:])
	if err != nil {
		return n, err
	}
	np, err := w.Write(payload)
	return n + np, err
}
