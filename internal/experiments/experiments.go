// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI, §VII): Table I (rules), Table II (impact-cost ratios),
// Fig. 6 (BM-DoS vs mining rate), Table III + Fig. 7 (application- vs
// network-layer flooding), Fig. 8 (Defamation time-to-ban), Fig. 10
// (detection features and thresholds), Fig. 11 (detection latency vs ML),
// and the §VIII countermeasure validation. Each experiment returns a typed
// result with a Render method printing rows/series shaped like the paper's.
package experiments

import (
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"banscore/internal/attack"
	"banscore/internal/banstore"
	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/peer"
	"banscore/internal/reputation"
	"banscore/internal/simnet"
	"banscore/internal/telemetry"
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
	Fabric *simnet.Network
	Victim *node.Node
	Target string

	ports atomic.Uint32
}

// TestbedConfig tunes the victim node.
type TestbedConfig struct {
	ChainParams   *blockchain.Params
	TrackerConfig core.Config
	Tap           node.Tap
	MaxInbound    int

	// Telemetry/Journal are passed through to the victim node; both may
	// be nil.
	Telemetry *telemetry.Registry
	Journal   *telemetry.Journal

	// Faults, when non-nil, becomes the fabric's default fault plan before
	// any connection is made (see Scale.Faults).
	Faults *simnet.FaultPlan

	// Tracer/Forensics are passed through to the fabric and the victim
	// node (see Scale.Tracer, Scale.Forensics); both may be nil.
	Tracer    *trace.Tracer
	Forensics *core.Ledger

	// Reputation, when non-nil, layers the netgroup reputation engine over
	// the victim's tracker (admission gating, evidence-weighted penalties,
	// collective netgroup bans). Pair with Mode: ModeThresholdInfinity to
	// study the engine as the sole countermeasure.
	Reputation *reputation.Engine

	// BanStore / BanStoreRecovered / SnapshotEvery pass crash-safe ban
	// persistence through to the victim node (see node.Config). The
	// restart experiment opens the store itself so it can crash and
	// reopen it between victim lifetimes.
	BanStore          *banstore.Store
	BanStoreRecovered *banstore.Recovered
	SnapshotEvery     time.Duration
}

// NewTestbed builds and starts the victim node on a fresh fabric.
func NewTestbed(cfg TestbedConfig) (*Testbed, error) {
	fabric := simnet.NewNetwork()
	if cfg.Faults != nil {
		fabric.SetDefaultFaults(cfg.Faults)
	}
	if cfg.Tracer != nil {
		fabric.SetTracer(cfg.Tracer)
	}
	tb := &Testbed{Fabric: fabric, Target: "10.0.0.1:8333"}
	victim := node.New(node.Config{
		ChainParams:       cfg.ChainParams,
		TrackerConfig:     cfg.TrackerConfig,
		Tap:               cfg.Tap,
		MaxInbound:        cfg.MaxInbound,
		Telemetry:         cfg.Telemetry,
		Journal:           cfg.Journal,
		Tracer:            cfg.Tracer,
		Forensics:         cfg.Forensics,
		Reputation:        cfg.Reputation,
		BanStore:          cfg.BanStore,
		BanStoreRecovered: cfg.BanStoreRecovered,
		SnapshotEvery:     cfg.SnapshotEvery,
		Dialer: func(remote string) (net.Conn, error) {
			port := 40000 + tb.ports.Add(1)
			return fabric.Dial(fmt.Sprintf("10.0.0.1:%d", port), remote)
		},
	})
	l, err := fabric.Listen(tb.Target)
	if err != nil {
		fabric.Close()
		return nil, err
	}
	victim.Serve(l)
	tb.Victim = victim
	return tb, nil
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
	tb.Victim.Stop()
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

// Suite runs every experiment at the given scale and renders them in paper
// order.
func Suite(scale Scale) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ban-score reproduction experiment suite (scale: %s)\n", scale.Name)
	sb.WriteString(strings.Repeat("=", 72) + "\n\n")

	sb.WriteString(Table1().Render())
	sb.WriteString("\n")

	t2, err := Table2(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("table 2: %w", err)
	}
	sb.WriteString(t2.Render())
	sb.WriteString("\n")

	f6, err := Figure6(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("figure 6: %w", err)
	}
	sb.WriteString(f6.Render())
	sb.WriteString("\n")

	t3, err := Table3(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("table 3: %w", err)
	}
	sb.WriteString(t3.Render())
	sb.WriteString("\n")

	f7, err := Figure7(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("figure 7: %w", err)
	}
	sb.WriteString(f7.Render())
	sb.WriteString("\n")

	f8, err := Figure8(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("figure 8: %w", err)
	}
	sb.WriteString(f8.Render())
	sb.WriteString("\n")

	f10, err := Figure10(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("figure 10: %w", err)
	}
	sb.WriteString(f10.Render())
	sb.WriteString("\n")

	f11, err := Figure11(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("figure 11: %w", err)
	}
	sb.WriteString(f11.Render())
	sb.WriteString("\n")

	cm, err := Countermeasures(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("countermeasures: %w", err)
	}
	sb.WriteString(cm.Render())
	sb.WriteString("\n")

	rep, err := ReputationComparison(scale)
	if err != nil {
		return sb.String(), fmt.Errorf("reputation: %w", err)
	}
	sb.WriteString(rep.Render())
	return sb.String(), nil
}
