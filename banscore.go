// Package banscore is a from-scratch Go reproduction of "The Security
// Investigation of Ban Score and Misbehavior Tracking in Bitcoin Network"
// (ICDCS 2022): a working Bitcoin P2P full node with Bitcoin Core's
// ban-score mechanism (Table I rules for 0.20.0/0.21.0/0.22.0), the paper's
// BM-DoS and Defamation attack toolkit, the lightweight identifier-oblivious
// anomaly-detection countermeasure, and an experiment harness regenerating
// every table and figure of the evaluation.
//
// The package is a facade over the internal implementation:
//
//   - Simulation: an in-memory network fabric (spoofing/sniffing-capable)
//     hosting victim nodes, attackers, and innocent peers.
//   - Node: the full node — wire protocol, chain and mempool validation,
//     peer slots, misbehavior tracking, bans, and outbound reconnection.
//   - Attacker: Bitcoin session client, message forging, flooding, Sybil
//     management, and both Defamation variants.
//   - Detector: the Monitor/Dataset/Analysis-engine countermeasure.
//
// See examples/ for runnable walkthroughs and cmd/experiments for the full
// reproduction suite.
package banscore

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"banscore/internal/attack"
	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/detect"
	"banscore/internal/node"
	"banscore/internal/simnet"
	"banscore/internal/telemetry"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// Version of the library.
const Version = "1.0.0"

// Tracker modes (the §VIII countermeasure settings), re-exported.
const (
	ModeStandard          = core.ModeStandard
	ModeThresholdInfinity = core.ModeThresholdInfinity
	ModeDisabled          = core.ModeDisabled
	ModeGoodScore         = core.ModeGoodScore
	ModeCKB               = core.ModeCKB
)

// Bitcoin Core versions whose Table I rule sets are implemented.
const (
	V0_20_0 = core.V0_20_0
	V0_21_0 = core.V0_21_0
	V0_22_0 = core.V0_22_0
)

// PeerID is a connection identifier ([IP:Port]), the object bans apply to.
type PeerID = core.PeerID

// Simulation is an in-memory network hosting nodes and attackers. It
// provides the three attacker capabilities the paper's threat models assume:
// Sybil identities, source spoofing, and (for post-connection Defamation)
// sniffing plus stream injection.
type Simulation struct {
	fabric *simnet.Network
	closed atomic.Bool
}

// NewSimulation returns an empty fabric.
func NewSimulation() *Simulation {
	return &Simulation{fabric: simnet.NewNetwork()}
}

// Fabric exposes the underlying simnet for advanced use.
func (s *Simulation) Fabric() *simnet.Network { return s.fabric }

// Close shuts down the fabric and everything on it.
func (s *Simulation) Close() {
	if s.closed.CompareAndSwap(false, true) {
		s.fabric.Close()
	}
}

// NodeOption configures a simulated node.
type NodeOption func(*node.Config)

// WithTrackerMode selects a §VIII countermeasure mode.
func WithTrackerMode(mode core.Mode) NodeOption {
	return func(cfg *node.Config) { cfg.TrackerConfig.Mode = mode }
}

// WithCoreVersion selects which Bitcoin Core release's Table I rules apply.
func WithCoreVersion(v core.CoreVersion) NodeOption {
	return func(cfg *node.Config) { cfg.TrackerConfig.Version = v }
}

// WithBanThreshold overrides the default 100-point ban threshold.
func WithBanThreshold(threshold int) NodeOption {
	return func(cfg *node.Config) { cfg.TrackerConfig.BanThreshold = threshold }
}

// WithBanDuration overrides the default 24-hour ban duration.
func WithBanDuration(d time.Duration) NodeOption {
	return func(cfg *node.Config) { cfg.TrackerConfig.BanDuration = d }
}

// WithMiningDifficulty makes the node's chain require real hash grinding
// (used by the mining-impact experiments).
func WithMiningDifficulty() NodeOption {
	return func(cfg *node.Config) { cfg.ChainParams = blockchain.HardNetParams() }
}

// WithDetector attaches a Detector's monitor to the node's message path. It
// composes with WithTap and other observers via node.MultiTap.
func WithDetector(d *Detector) NodeOption {
	return func(cfg *node.Config) { cfg.Tap = node.MultiTap(cfg.Tap, d.monitor) }
}

// WithTap attaches an arbitrary observer to the node's message path,
// composing with any previously configured tap (a detector, another tap).
func WithTap(t node.Tap) NodeOption {
	return func(cfg *node.Config) { cfg.Tap = node.MultiTap(cfg.Tap, t) }
}

// WithTelemetry attaches a metrics registry and (optionally nil) event
// journal to the node: per-command message counters, dispatch latency,
// per-rule misbehavior counters, ban totals, slot occupancy, peer traffic,
// and typed events. Serve them with telemetry.NewServer.
func WithTelemetry(reg *telemetry.Registry, j *telemetry.Journal) NodeOption {
	return func(cfg *node.Config) {
		cfg.Telemetry = reg
		cfg.Journal = j
	}
}

// WithTracer attaches the message-lifecycle tracer to the node: sampled
// spans through wire decode, dispatch, ban scoring, and send. Install the
// same tracer on the Simulation's fabric (Fabric().SetTracer) to include
// conn_write spans, and remember to call Enable — tracers start disabled.
func WithTracer(t *trace.Tracer) NodeOption {
	return func(cfg *node.Config) { cfg.Tracer = t }
}

// WithForensics attaches a ban-forensics ledger to the node's tracker: every
// ban-score application is appended as an immutable record answering "why is
// this peer banned" even after scores reset or the peer is forgotten.
func WithForensics(l *core.Ledger) NodeOption {
	return func(cfg *node.Config) { cfg.Forensics = l }
}

// WithMaxInbound overrides the 117-inbound-slot default.
func WithMaxInbound(n int) NodeOption {
	return func(cfg *node.Config) { cfg.MaxInbound = n }
}

// WithReputationEviction enables the CKB-style slot policy (§IX-A): when
// inbound slots fill up, the lowest-negative-reputation peer is evicted for
// the newcomer. Combine with WithTrackerMode(ModeCKB).
func WithReputationEviction() NodeOption {
	return func(cfg *node.Config) { cfg.EvictLowestReputation = true }
}

// Node is a running full node inside a Simulation.
type Node struct {
	inner *node.Node
	sim   *Simulation
	addr  string
	ports atomic.Uint32
}

// StartNode launches a node listening at addr (e.g. "10.0.0.1:8333").
func (s *Simulation) StartNode(addr string, opts ...NodeOption) (*Node, error) {
	n := &Node{sim: s, addr: addr}
	cfg := node.Config{
		Dialer: func(remote string) (net.Conn, error) {
			port := 40000 + n.ports.Add(1)
			host, _, err := net.SplitHostPort(addr)
			if err != nil {
				host = "10.0.0.1"
			}
			return s.fabric.Dial(fmt.Sprintf("%s:%d", host, port), remote)
		},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	n.inner = node.New(cfg)
	l, err := s.fabric.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("start node at %s: %w", addr, err)
	}
	n.inner.Serve(l)
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.addr }

// Internal exposes the underlying node for advanced use.
func (n *Node) Internal() *node.Node { return n.inner }

// ConnectTo opens an outbound connection to another node's address.
func (n *Node) ConnectTo(addr string) error { return n.inner.Connect(addr) }

// BanScore returns the tracked misbehavior score of a peer identifier.
func (n *Node) BanScore(id PeerID) int { return n.inner.Tracker().Score(id) }

// GoodScore returns the good-score credit of a peer identifier.
func (n *Node) GoodScore(id PeerID) int { return n.inner.Tracker().GoodScore(id) }

// IsBanned reports whether a peer identifier is currently banned.
func (n *Node) IsBanned(id PeerID) bool { return n.inner.Tracker().IsBanned(id) }

// BannedCount returns the number of banned identifiers.
func (n *Node) BannedCount() int { return n.inner.Tracker().BanList().Count() }

// PeerCount returns (inbound, outbound) connection counts.
func (n *Node) PeerCount() (int, int) { return n.inner.PeerCount() }

// ChainHeight returns the node's best block height.
func (n *Node) ChainHeight() int32 { return n.inner.Chain().BestHeight() }

// Stats returns a snapshot of node counters.
func (n *Node) Stats() node.Stats { return n.inner.Stats() }

// RankPeers returns connected peers by ascending reputation — the
// non-binary peer-health view built from retained scores.
func (n *Node) RankPeers() []node.PeerReputation { return n.inner.RankPeers() }

// Stop shuts the node down.
func (n *Node) Stop() { n.inner.Stop() }

// Attacker holds one attacker IP on the fabric and mints Sybil identifiers
// against a target node.
type Attacker struct {
	sim    *Simulation
	ip     string
	target string
	forge  *attack.Forge
	sybil  *attack.SybilManager
}

// NewAttacker returns an attacker at ip (e.g. "10.0.0.66") aimed at target.
func (s *Simulation) NewAttacker(ip, target string) *Attacker {
	dial := func(from, to string) (net.Conn, error) { return s.fabric.Dial(from, to) }
	return &Attacker{
		sim:    s,
		ip:     ip,
		target: target,
		forge:  attack.NewForge(blockchain.SimNetParams()),
		sybil:  attack.NewSybilManager(ip, target, wire.SimNet, dial),
	}
}

// Forge exposes the message-crafting toolkit.
func (a *Attacker) Forge() *attack.Forge { return a.forge }

// OpenSession connects with a fresh Sybil identifier and completes the
// version handshake.
func (a *Attacker) OpenSession() (*attack.Session, error) {
	return a.sybil.NextSession(5 * time.Second)
}

// OpenSessionAs connects with an explicit (possibly spoofed) source
// identifier — pre-connection Defamation uses this.
func (a *Attacker) OpenSessionAs(from string) (*attack.Session, error) {
	conn, err := a.sim.fabric.Dial(from, a.target)
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

// FloodPings sends count PING messages over a fresh session (BM-DoS
// vector 1: no ban rule exists for PING) and returns once the victim has
// answered the last of them, so all count were dispatched. Closing on the
// last write instead would fail the victim's next PONG write, and the
// disconnect that follows drops every PING still buffered.
func (a *Attacker) FloodPings(count uint64) (attack.FloodResult, error) {
	s, err := a.OpenSession()
	if err != nil {
		return attack.FloodResult{}, err
	}
	defer s.Close()
	var last uint64
	res := attack.Flood(s, func() wire.Message {
		ping := a.forge.Ping()
		last = ping.Nonce
		return ping
	}, attack.FloodOptions{Count: count})
	if res.Err == nil {
		// The flood itself is complete; a reply the victim shed only means
		// the wait ran to its deadline, so its error is not the flood's.
		_ = s.AwaitPong(last, 5*time.Second)
	}
	return res, nil
}

// FloodBogusBlocks floods invalid-PoW BLOCK payloads framed with corrupt
// checksums for the given duration (BM-DoS vector 2: dropped before
// misbehavior tracking, maximum transport-layer cost).
func (a *Attacker) FloodBogusBlocks(d time.Duration, txCount int) (attack.FloodResult, error) {
	s, err := a.OpenSession()
	if err != nil {
		return attack.FloodResult{}, err
	}
	defer s.Close()
	payload := attack.EncodeBlock(a.forge.BogusBlock(txCount))
	return attack.FloodRaw(s, wire.CmdBlock, payload, attack.FloodOptions{Duration: d}), nil
}

// DefamePreConnection spoofs the innocent identifier before it connects and
// misbehaves until the target bans it.
func (a *Attacker) DefamePreConnection(innocent string) (attack.DefamationResult, error) {
	dial := func(from, to string) (net.Conn, error) { return a.sim.fabric.Dial(from, to) }
	return attack.PreConnectionDefame(dial, innocent, a.target, wire.SimNet, 0)
}

// NewPostConnectionDefamer arms Algorithm 1 against an innocent peer's live
// connection. Arm it BEFORE the innocent connects so the eavesdropper sees
// the stream from its start; then call Run.
func (a *Attacker) NewPostConnectionDefamer(innocent string) *attack.PostConnectionDefamer {
	return attack.NewPostConnectionDefamer(a.sim.fabric, innocent, a.target, wire.SimNet)
}

// SerialDefame runs the Fig. 8 serial Sybil loop: fresh identifiers sending
// duplicate VERSIONs until each gets banned.
func (a *Attacker) SerialDefame(identifiers int, delay time.Duration) ([]attack.SerialResult, error) {
	me := wire.NewNetAddressIPPort(nil, 0, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(nil, 0, 0)
	return a.sybil.RunSerial(identifiers, func() wire.Message {
		return wire.NewMsgVersion(me, you, 1, 0)
	}, delay)
}

// Detector is the paper's anomaly-detection countermeasure: a Monitor
// collecting windowed message statistics and the statistical analysis
// engine with the c / n / Λ features.
type Detector struct {
	monitor *detect.Monitor
	engine  *detect.Engine
}

// NewDetector returns a detector with the given window (zero selects the
// paper's 10 minutes).
func NewDetector(window time.Duration) *Detector {
	return &Detector{monitor: detect.NewMonitor(window)}
}

// Monitor exposes the underlying monitor. It implements node.Tap directly,
// so it can be combined with other observers via node.MultiTap.
func (d *Detector) Monitor() *detect.Monitor { return d.monitor }

// Train fits the thresholds from the windows collected so far (which must
// be normal traffic) and returns them.
func (d *Detector) Train() (detect.Thresholds, error) {
	engine, _, err := detect.Train(d.monitor.Flush(), detect.Config{Margin: 1.15})
	if err != nil {
		return detect.Thresholds{}, err
	}
	d.engine = engine
	d.monitor.Reset()
	return engine.Thresholds(), nil
}

// TrainOn fits the thresholds from an explicit window set.
func (d *Detector) TrainOn(windows []detect.WindowStats) (detect.Thresholds, error) {
	engine, _, err := detect.Train(windows, detect.Config{Margin: 1.15})
	if err != nil {
		return detect.Thresholds{}, err
	}
	d.engine = engine
	return engine.Thresholds(), nil
}

// Detect evaluates the windows collected since training.
func (d *Detector) Detect() ([]detect.Detection, error) {
	if d.engine == nil {
		return nil, fmt.Errorf("detector is not trained")
	}
	verdicts, _ := d.engine.DetectAll(d.monitor.Flush())
	d.monitor.Reset()
	return verdicts, nil
}

// DetectWindows evaluates an explicit window set.
func (d *Detector) DetectWindows(windows []detect.WindowStats) ([]detect.Detection, error) {
	if d.engine == nil {
		return nil, fmt.Errorf("detector is not trained")
	}
	verdicts, _ := d.engine.DetectAll(windows)
	return verdicts, nil
}

// BanRules returns the full Table I catalog.
func BanRules() []core.Rule { return core.Catalog() }
