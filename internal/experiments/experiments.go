// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI, §VII): Table I (rules), Table II (impact-cost ratios),
// Fig. 6 (BM-DoS vs mining rate), Table III + Fig. 7 (application- vs
// network-layer flooding), Fig. 8 (Defamation time-to-ban), Fig. 10
// (detection features and thresholds), Fig. 11 (detection latency vs ML),
// and the §VIII countermeasure validation. Each experiment returns a typed
// result with a Render method printing rows/series shaped like the paper's;
// the registry (registry.go) names them and fixes the suite's order.
package experiments

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"banscore/internal/attack"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/peer"
	"banscore/internal/simnet"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// ReferenceClockHz converts measured CPU time into "clock cycles" the way
// the paper reports them. The paper's testbed ran an Intel Core i7 at 4 GHz;
// impact-cost *ratios* are frequency independent.
const ReferenceClockHz = 4e9

// Cycles converts a duration to reference clock cycles.
func Cycles(d time.Duration) float64 {
	return d.Seconds() * ReferenceClockHz
}

// Scale sizes an experiment run. Quick keeps the full suite in seconds for
// CI; Paper approaches the paper's sample counts.
type Scale struct {
	Name string

	// MiningSamples mining-rate samples per flood configuration, each
	// one FloodWindow long (the paper sampled 100 times, counting 10^7
	// hashes per sample; this harness samples the live attempt counter
	// over fixed windows instead).
	MiningSamples int

	// FloodWindow is the measurement window while a flood runs.
	FloodWindow time.Duration

	// Table2Iters per message type.
	Table2Iters int

	// TrainHours / TestHours of synthetic traffic for detection.
	TrainHours int
	TestHours  int

	// SerialIdentifiers per Fig. 8 delay setting.
	SerialIdentifiers int

	// SwarmIdentities sizes the parallel-Sybil swarm of the reputation
	// comparison: distinct identifiers drawn from one IPv4 /16, enough to
	// exhaust a netgroup budget with headroom.
	SwarmIdentities int

	// Faults, when non-nil, is installed as the fabric-wide default fault
	// plan of every testbed the experiments build, so any table or figure
	// can be regenerated over a lossy, laggy, or resetting network. Nil
	// keeps the perfect fabric the paper's testbed assumed.
	Faults *simnet.FaultPlan

	// Tracer, when non-nil, threads the message-lifecycle tracer through
	// every testbed (fabric writes, peer decode, dispatch, ban events) so
	// an experiment run can emit a Chrome trace artifact alongside its
	// table or figure. Nil keeps experiments trace-free.
	Tracer *trace.Tracer

	// Forensics, when non-nil, collects the ban audit trail of every
	// testbed's tracker — the record of exactly which rule sequence banned
	// each attacker identity during the run.
	Forensics *core.Ledger
}

// QuickScale finishes the full suite in well under a minute.
func QuickScale() Scale {
	return Scale{
		Name:              "quick",
		MiningSamples:     5,
		FloodWindow:       250 * time.Millisecond,
		Table2Iters:       300,
		TrainHours:        35,
		TestHours:         2,
		SerialIdentifiers: 3,
		SwarmIdentities:   60,
	}
}

// PaperScale approaches the paper's sample counts (minutes of runtime).
func PaperScale() Scale {
	return Scale{
		Name:              "paper",
		MiningSamples:     20,
		FloodWindow:       time.Second,
		Table2Iters:       2000,
		TrainHours:        35,
		TestHours:         12,
		SerialIdentifiers: 10,
		SwarmIdentities:   120,
	}
}

// Testbed is the three-machine setup of §V-B on the simulation fabric: a
// target node (listening like a public node on :8333), an attacker address
// space, and room for an innocent peer.
type Testbed struct {
	*node.Assembly
	Victim *node.Node // the assembly's Node
	Target string
}

// NewTestbed assembles the victim from opts and serves it at 10.0.0.1:8333
// on opts.Fabric, or on a fresh fabric when that is nil.
func NewTestbed(opts node.Options) (*Testbed, error) {
	if opts.Fabric == nil {
		opts.Fabric = simnet.NewNetwork()
	}
	opts.Listen = "10.0.0.1:8333"
	a, err := node.Assemble(opts)
	if err != nil {
		opts.Fabric.Close()
		return nil, err
	}
	return &Testbed{Assembly: a, Victim: a.Node, Target: opts.Listen}, nil
}

// testbed builds a Testbed for cfg under the scale's tracer and forensics
// ledger, on a fabric that applies the scale's fault plan from the start.
func (s Scale) testbed(cfg node.Config) (*Testbed, error) {
	cfg.Tracer, cfg.Forensics = s.Tracer, s.Forensics
	fabric := simnet.NewNetwork()
	if s.Faults != nil {
		fabric.SetDefaultFaults(s.Faults)
	}
	return NewTestbed(node.Options{Config: cfg, Fabric: fabric})
}

// AttackerDialer returns the spoofing-capable dialer of the fabric.
func (tb *Testbed) AttackerDialer() attack.Dialer {
	return func(from, to string) (net.Conn, error) { return tb.Fabric.Dial(from, to) }
}

// NewAttackSession connects and handshakes an attacker session from the
// given source identifier.
func (tb *Testbed) NewAttackSession(from string) (*attack.Session, error) {
	conn, err := tb.Fabric.Dial(from, tb.Target)
	if err != nil {
		return nil, err
	}
	s := attack.NewSession(conn, wire.SimNet)
	if err := s.Handshake(5 * time.Second); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close tears the testbed down.
func (tb *Testbed) Close() {
	_ = tb.Assembly.Close()
	tb.Fabric.Close()
}

// VictimPeer returns the victim-side peer object for the given attacker
// identifier once the victim has fully processed the version handshake.
// Direct-injection measurements must use this: on a single CPU the caller
// can otherwise outrun the victim's read loop.
func (tb *Testbed) VictimPeer(from string) (*peer.Peer, error) {
	deadline := clk.Now().Add(5 * time.Second)
	for clk.Now().Before(deadline) {
		if p, ok := tb.Victim.Peer(core.PeerIDFromAddr(from)); ok && p.HandshakeComplete() {
			return p, nil
		}
		runtime.Gosched()
		clk.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("victim never completed handshake with %s", from)
}
