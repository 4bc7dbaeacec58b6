// Package node implements the reproduction's full Bitcoin node: listener and
// connection management with Bitcoin Core's slot layout (117 inbound / 8
// outbound), the version handshake, the complete message dispatch pipeline,
// and the integration point of every Table I ban rule via the core tracker.
// It also drives outbound reconnection after bans — the behavior the
// detection engine's reconnection-rate feature c observes.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"banscore/internal/banstore"
	"banscore/internal/blockchain"
	"banscore/internal/bloom"
	"banscore/internal/chainhash"
	"banscore/internal/core"
	"banscore/internal/mempool"
	"banscore/internal/peer"
	"banscore/internal/reputation"
	"banscore/internal/telemetry"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// Bitcoin Core's default connection slot layout, as described in the
// paper's threat model: up to 117 inbound peers of 125 total slots, with 8
// outbound connections.
const (
	DefaultMaxInbound  = 117
	DefaultMaxOutbound = 8
)

// Resilience defaults. Each can be overridden in Config; negative values
// disable the corresponding deadline.
const (
	// DefaultDialTimeout bounds one outbound dial attempt.
	DefaultDialTimeout = 10 * time.Second

	// DefaultHandshakeTimeout bounds the VERSION/VERACK exchange. A peer
	// still pre-VERACK when it expires is disconnected, reclaiming the
	// slot an attacker could otherwise pin indefinitely by connecting and
	// going silent.
	DefaultHandshakeTimeout = 15 * time.Second

	// DefaultReconnectBackoff / DefaultReconnectMaxBackoff bound the slot
	// keeper's retry schedule (exponential with jitter).
	DefaultReconnectBackoff    = 100 * time.Millisecond
	DefaultReconnectMaxBackoff = 5 * time.Second
)

// Sentinel errors from Connect. The outbound slot keeper distinguishes
// "the slot is already filled" (stop retrying) from transient dial
// failures (keep retrying).
var (
	// ErrOutboundSlotsFull: every outbound slot is occupied.
	ErrOutboundSlotsFull = errors.New("outbound slots full")

	// ErrAlreadyConnected: a connection to that identifier exists.
	ErrAlreadyConnected = errors.New("already connected")

	// ErrPeerBanned: the target identifier is currently banned.
	ErrPeerBanned = errors.New("peer is banned")

	// ErrDialTimeout: the dialer did not produce a connection in time.
	ErrDialTimeout = errors.New("dial timed out")

	// ErrNodeStopped: the node is shutting down.
	ErrNodeStopped = errors.New("node stopped")
)

// Dialer opens an outbound connection from a local address to a remote one.
// The simnet fabric and net.Dial both satisfy it via small adapters.
type Dialer func(remote string) (net.Conn, error)

// Tap observes node-level events for the anomaly-detection Monitor.
type Tap interface {
	// OnMessage is called for every decoded message with its command.
	OnMessage(cmd string, at time.Time)

	// OnOutboundReconnect is called when the node replaces a lost
	// outbound peer with a new connection.
	OnOutboundReconnect(at time.Time)
}

// Config parameterizes a Node.
type Config struct {
	// ChainParams of the chain to validate against. Nil selects simnet.
	ChainParams *blockchain.Params

	// TrackerConfig for the ban-score mechanism.
	TrackerConfig core.Config

	// MaxInbound connection slots; zero selects DefaultMaxInbound. Outbound
	// slots are fixed at DefaultMaxOutbound.
	MaxInbound int

	// UserAgent announced in VERSION.
	UserAgent string

	// Services advertised. Note SFNodeBloom is off by default, which is
	// what arms the FILTERADD protocol-version rule.
	Services wire.ServiceFlag

	// Dialer for outbound connections. Required for Connect/reconnect.
	Dialer Dialer

	// Clock for all time-dependent state. Nil selects time.Now.
	Clock func() time.Time

	// Tap receives monitor events; may be nil.
	Tap Tap

	// IdleTimeout for peer connections; zero selects the peer default.
	IdleTimeout time.Duration

	// WriteTimeout bounds each message write to a peer; zero selects the
	// peer default, negative disables it.
	WriteTimeout time.Duration

	// DialTimeout bounds one outbound dial attempt; zero selects
	// DefaultDialTimeout, negative disables it.
	DialTimeout time.Duration

	// HandshakeTimeout bounds the VERSION/VERACK exchange on every new
	// connection, inbound and outbound; zero selects
	// DefaultHandshakeTimeout, negative disables it.
	HandshakeTimeout time.Duration

	// ReconnectBackoff is the slot keeper's initial retry delay; zero
	// selects DefaultReconnectBackoff. It doubles per failed attempt up
	// to ReconnectMaxBackoff (zero selects DefaultReconnectMaxBackoff),
	// with up to 50% random jitter added.
	ReconnectBackoff    time.Duration
	ReconnectMaxBackoff time.Duration

	// BanTableSoftLimit is the banned-identifier count past which Health
	// reports the node degraded; zero selects DefaultBanTableSoftLimit.
	BanTableSoftLimit int

	// DisableReconnect turns off automatic outbound reconnection
	// (useful in benchmarks isolating other behavior).
	DisableReconnect bool

	// EvictLowestReputation enables the CKB-style slot policy of §IX-A:
	// when the inbound slots are full, a new connection evicts the
	// connected inbound peer with the lowest (negative) reputation
	// instead of being refused. Pair with ModeCKB so misbehavior lowers
	// reputation without banning.
	EvictLowestReputation bool

	// Telemetry, if set, receives the node's metric series: per-command
	// message counters, dispatch latency, per-rule misbehavior counters,
	// ban totals, slot occupancy, and peer traffic. Nil disables all
	// instrumentation (the message path then pays a single nil check).
	Telemetry *telemetry.Registry

	// Journal, if set (together with Telemetry), receives typed events:
	// connects, disconnects, refusals, score increments, bans,
	// reconnects. May be nil even when Telemetry is set.
	Journal *telemetry.Journal

	// Tracer, if set, threads the message-lifecycle tracer through the
	// node: peers sample wire decode/encode spans, the dispatcher records
	// handle spans, and every Misbehaving call reached from a traced
	// dispatch records a misbehave span carrying the Table I rule. Nil
	// keeps the dispatch path at a single nil check.
	Tracer *trace.Tracer

	// Forensics, if set, is installed as the tracker's ban ledger (unless
	// TrackerConfig.Forensics is already set): every scoring Misbehaving
	// call appends the rule/delta/score record /debug/bans serves.
	Forensics *core.Ledger

	// BanStore, if set, makes ban state crash-safe: every scoring event,
	// ban, forget, and good-score credit is appended to its write-ahead
	// log from the tracker's OnRecord hook, and a background scheduler
	// writes compacted snapshots every SnapshotEvery. The store sheds
	// appends (never blocks the message path) when durability falls
	// behind, and Health reports the node degraded while it does.
	BanStore *banstore.Store

	// BanStoreRecovered, if set together with BanStore, is the recovery
	// result from banstore.Open. New replays it into the tracker, the
	// forensics ledger, and the reputation engine before the node accepts
	// its first connection, so bans survive a crash or restart. New drops
	// its copy of the pointer once Restore returns, so the node does not
	// keep the recovered segment image alive for its lifetime; the
	// caller's own pointer is untouched.
	BanStoreRecovered *banstore.Recovered

	// SnapshotEvery is the ban-state snapshot interval; zero selects
	// DefaultSnapshotEvery, negative disables the scheduler (Snapshot can
	// still be forced via WriteSnapshot).
	SnapshotEvery time.Duration

	// PeerRunner, when set, is installed as every peer's Runner: instead
	// of the two-goroutine loop pair, peers are pumped by the runner's
	// event loop (internal/swarm's sharded dispatcher). The runner is
	// responsible for registering each peer's connection when peer.Start
	// hands it over. Real-TCP deployments (cmd/btcnode, fleet) leave this
	// nil and keep goroutine loops.
	PeerRunner peer.Runner

	// PeerSendQueue caps the messages each peer may have accepted and not
	// yet written; zero keeps the peer default (1024). The queue grows on
	// demand, so the cap bounds what a slow or hostile reader can make
	// its connection retain (see peer.Config.SendQueueDepth), not what an
	// idle one costs. Swarm-scale simulations lower it for that bound.
	PeerSendQueue int

	// Reputation, if set, layers the netgroup reputation engine over the
	// tracker: every applied rule hit also charges the peer's /16 (or
	// IPv6 /32) budget, valid BLOCK/TX deliveries earn trust, admission
	// consults the netgroup's standing (collectively banned prefixes are
	// refused at accept time), and eviction under slot pressure ranks by
	// engine reputation. Pair with ModeThresholdInfinity to run the
	// engine as the sole countermeasure (scores and evidence retained,
	// per-identifier bans off).
	Reputation *reputation.Engine
}

// Stats aggregates node counters.
type Stats struct {
	InboundPeers         int
	OutboundPeers        int
	BannedConnsRefused   uint64
	SlotConnsRefused     uint64
	NetgroupConnsRefused uint64
	MessagesProcessed    uint64
	BlocksAccepted       uint64
	TxAccepted           uint64
	Reconnections        uint64
	ReconnectAttempts    uint64
	HandshakeTimeouts    uint64
	WriteTimeouts        uint64
	PendingOutbound      int
}

// Node is a running full node.
type Node struct {
	cfg     Config
	chain   *blockchain.Chain
	mempool *mempool.TxPool
	tracker *core.Tracker
	addrmgr *AddrManager
	metrics *nodeMetrics // nil unless cfg.Telemetry is set

	mu           sync.Mutex
	peers        map[core.PeerID]*peer.Peer
	watchdogs    map[*peer.Peer]*time.Timer // armed handshake deadlines; see armHandshakeWatchdog
	dialing      map[core.PeerID]struct{}   // outbound dials in flight, by target ID
	inbound      int
	outbound     int
	listeners    []net.Listener
	blockStore   map[chainhash.Hash]*wire.MsgBlock
	headerCount  map[core.PeerID]int                 // non-connecting headers per peer
	filters      map[core.PeerID]*bloom.Filter       // BIP37 filters installed by FILTERLOAD
	pendingCmpct map[chainhash.Hash]wire.BlockHeader // compact blocks awaiting BLOCKTXN

	nonce uint64 // our VERSION nonce

	bannedRefused     atomic.Uint64
	slotRefused       atomic.Uint64
	netgroupRefused   atomic.Uint64
	messagesProcessed atomic.Uint64
	blocksAccepted    atomic.Uint64
	txAccepted        atomic.Uint64
	reconnections     atomic.Uint64
	reconnectAttempts atomic.Uint64
	handshakeTimeouts atomic.Uint64
	writeTimeouts     atomic.Uint64

	// pendingOutbound counts outbound slots lost and currently being
	// refilled by a keeper — the node's outbound deficit, surfaced by
	// Health and the node_outbound_deficit gauge.
	pendingOutbound atomic.Int32

	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a Node.
func New(cfg Config) *Node {
	if cfg.ChainParams == nil {
		cfg.ChainParams = blockchain.SimNetParams()
	}
	if cfg.MaxInbound == 0 {
		cfg.MaxInbound = DefaultMaxInbound
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.UserAgent == "" {
		cfg.UserAgent = wire.DefaultUserAgent
	}
	if cfg.TrackerConfig.Clock == nil {
		cfg.TrackerConfig.Clock = cfg.Clock
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.ReconnectBackoff == 0 {
		cfg.ReconnectBackoff = DefaultReconnectBackoff
	}
	if cfg.ReconnectMaxBackoff == 0 {
		cfg.ReconnectMaxBackoff = DefaultReconnectMaxBackoff
	}

	n := &Node{
		cfg:          cfg,
		chain:        blockchain.New(cfg.ChainParams, blockchain.WithClock(cfg.Clock)),
		mempool:      mempool.New(0),
		addrmgr:      NewAddrManager(0x5eed),
		peers:        make(map[core.PeerID]*peer.Peer),
		watchdogs:    make(map[*peer.Peer]*time.Timer),
		dialing:      make(map[core.PeerID]struct{}),
		blockStore:   make(map[chainhash.Hash]*wire.MsgBlock),
		headerCount:  make(map[core.PeerID]int),
		filters:      make(map[core.PeerID]*bloom.Filter),
		pendingCmpct: make(map[chainhash.Hash]wire.BlockHeader),
		nonce:        0xba5eba11c0de,
		quit:         make(chan struct{}),
	}
	n.blockStore[cfg.ChainParams.GenesisHash] = cfg.ChainParams.GenesisBlock

	if cfg.Forensics != nil && n.cfg.TrackerConfig.Forensics == nil {
		n.cfg.TrackerConfig.Forensics = cfg.Forensics
	}
	if cfg.Telemetry != nil {
		n.metrics = newNodeMetrics(n, cfg.Telemetry, cfg.Journal)
		// Interpose the telemetry hooks ahead of any caller-supplied
		// tracker callbacks.
		tc := &n.cfg.TrackerConfig
		userApplied, userBan := tc.OnApplied, tc.OnBan
		tc.OnApplied = func(id core.PeerID, rule core.RuleID, delta, total int) {
			n.metrics.onRuleApplied(id, rule, delta, total)
			if userApplied != nil {
				userApplied(id, rule, delta, total)
			}
		}
		tc.OnBan = func(id core.PeerID, score int) {
			n.metrics.onBan(id, score)
			if userBan != nil {
				userBan(id, score)
			}
		}
	}
	if s := cfg.BanStore; s != nil {
		// Feed the WAL from the tracker's record hook. The hook runs
		// under the peer's shard lock, so records reach the store in
		// exact computation order; the store itself only encodes into
		// the group-commit buffer there (fsync is off this path).
		tc := &n.cfg.TrackerConfig
		banDur := tc.BanDuration
		if banDur == 0 {
			banDur = core.DefaultBanDuration
		}
		userRecord := tc.OnRecord
		tc.OnRecord = func(rec core.BanRecord) {
			s.AppendMisbehavior(rec)
			if rec.Banned {
				s.AppendBan(rec.Peer, rec.At.Add(banDur))
			}
			if userRecord != nil {
				userRecord(rec)
			}
		}
	}
	n.tracker = core.NewTracker(n.cfg.TrackerConfig)
	if s := cfg.BanStore; s != nil {
		if cfg.BanStoreRecovered != nil {
			banstore.Restore(cfg.BanStoreRecovered, n.tracker, n.cfg.TrackerConfig.Forensics, cfg.Reputation)
			n.cfg.BanStoreRecovered = nil
		}
		if cfg.SnapshotEvery >= 0 {
			every := cfg.SnapshotEvery
			if every == 0 {
				every = DefaultSnapshotEvery
			}
			n.spawn(func() { n.snapshotLoop(every) })
		}
	}
	return n
}

// spawn runs fn on a goroutine registered with the node's WaitGroup
// before it starts, so Stop collects it. The banlint gospawn analyzer
// restricts go statements in this package to this helper: every goroutine
// the node owns is supervised or carries an explicit waiver.
func (n *Node) spawn(fn func()) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		fn()
	}()
}

// Chain exposes the node's chain state.
func (n *Node) Chain() *blockchain.Chain { return n.chain }

// Mempool exposes the node's transaction pool.
func (n *Node) Mempool() *mempool.TxPool { return n.mempool }

// Tracker exposes the ban-score tracker.
func (n *Node) Tracker() *core.Tracker { return n.tracker }

// Reputation exposes the netgroup reputation engine (nil when the node
// runs on ban score alone).
func (n *Node) Reputation() *reputation.Engine { return n.cfg.Reputation }

// AddrManager exposes the peer table.
func (n *Node) AddrManager() *AddrManager { return n.addrmgr }

// Stats returns a snapshot of node counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	inbound, outbound := n.inbound, n.outbound
	n.mu.Unlock()
	// With telemetry enabled the message count lives in the per-command
	// counter family (see handleMessage); fold it in here.
	processed := n.messagesProcessed.Load()
	if m := n.metrics; m != nil {
		processed += m.msgRx.Total()
	}
	return Stats{
		InboundPeers:         inbound,
		OutboundPeers:        outbound,
		BannedConnsRefused:   n.bannedRefused.Load(),
		SlotConnsRefused:     n.slotRefused.Load(),
		NetgroupConnsRefused: n.netgroupRefused.Load(),
		MessagesProcessed:    processed,
		BlocksAccepted:       n.blocksAccepted.Load(),
		TxAccepted:           n.txAccepted.Load(),
		Reconnections:        n.reconnections.Load(),
		ReconnectAttempts:    n.reconnectAttempts.Load(),
		HandshakeTimeouts:    n.handshakeTimeouts.Load(),
		WriteTimeouts:        n.writeTimeouts.Load(),
		PendingOutbound:      int(n.pendingOutbound.Load()),
	}
}

// Serve accepts connections from l until the node stops.
func (n *Node) Serve(l net.Listener) {
	n.mu.Lock()
	n.listeners = append(n.listeners, l)
	n.mu.Unlock()
	n.spawn(func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			n.acceptInbound(conn)
		}
	})
}

// acceptInbound admits or rejects an inbound connection.
func (n *Node) acceptInbound(conn net.Conn) {
	remote := core.PeerIDFromAddr(conn.RemoteAddr().String())

	// The banning filter acts at accept time: a banned [IP:Port] cannot
	// reconnect during the ban period.
	if n.tracker.IsBanned(remote) {
		n.bannedRefused.Add(1)
		if m := n.metrics; m != nil {
			m.event(telemetry.EventConnRefused, string(remote), "", 0, "banned")
		}
		conn.Close()
		return
	}

	// The reputation layer acts at the same point, one level up: a
	// collectively banned netgroup refuses every member — including
	// fresh identifiers the tracker has never seen, which is exactly the
	// Sybil reconnect the per-identifier filter cannot stop.
	if e := n.cfg.Reputation; e != nil && e.Admission(remote) == reputation.VerdictReject {
		n.netgroupRefused.Add(1)
		if m := n.metrics; m != nil {
			m.event(telemetry.EventConnRefused, string(remote), "", 0, "netgroup")
		}
		conn.Close()
		return
	}

	n.mu.Lock()
	if n.inbound >= n.cfg.MaxInbound {
		n.mu.Unlock()
		if !n.cfg.EvictLowestReputation || !n.evictWorstInbound() {
			n.refuseForSlots(conn, remote)
			return
		}
		n.mu.Lock()
		if n.inbound >= n.cfg.MaxInbound {
			// Lost the race for the freed slot.
			n.mu.Unlock()
			n.refuseForSlots(conn, remote)
			return
		}
	}
	n.inbound++
	n.mu.Unlock()

	n.startPeer(conn, true)
}

// refuseForSlots closes an inbound connection that found no free slot.
func (n *Node) refuseForSlots(conn net.Conn, remote core.PeerID) {
	n.slotRefused.Add(1)
	if m := n.metrics; m != nil {
		m.event(telemetry.EventConnRefused, string(remote), "", 0, "slots")
	}
	conn.Close()
}

// Eviction scan bounds. Up to evictExactScanLimit connected peers the
// eviction decision examines every inbound peer (the exact CKB ranking);
// past it, each decision examines a bounded random sample instead — map
// iteration order is randomized per pass, so the sample is fresh every
// time. Without the bound, a full accept queue at 100k peers turns each
// admission into an O(n) scan and the accept path into O(n²).
const (
	evictExactScanLimit = 1024
	evictSampleSize     = 64
)

// evictWorstInbound disconnects the inbound peer with the lowest negative
// reputation (CKB-style "evict bad peers"). With the reputation engine
// installed the ranking is its decayed trust−misbehavior; otherwise the
// tracker's integer good−bad score. It returns false when no examined
// inbound peer has misbehaved on balance — honest peers are never evicted
// for a stranger. At swarm scale the scan is sampled (see
// evictExactScanLimit), trading the globally worst peer for a
// probably-bad one at O(1) cost per admission.
func (n *Node) evictWorstInbound() bool {
	e := n.cfg.Reputation
	n.mu.Lock()
	exact := len(n.peers) <= evictExactScanLimit
	examined := 0
	var worst *peer.Peer
	worstRep := 0.0
	for _, p := range n.peers {
		if !p.Inbound() {
			continue
		}
		var rep float64
		if e != nil {
			rep = e.Score(p.ID()).Reputation
		} else {
			rep = float64(n.tracker.Reputation(p.ID()))
		}
		if rep < worstRep {
			worstRep = rep
			worst = p
		}
		if !exact {
			if examined++; examined >= evictSampleSize {
				break
			}
		}
	}
	n.mu.Unlock()
	if worst == nil {
		return false
	}
	worst.Disconnect()
	worst.WaitForShutdown()
	return true
}

// PeerReputation is one entry of the node's peer-health ranking. The
// Engine* fields are populated only when the reputation engine is
// installed; Netgroup is then the budget group the peer charges.
type PeerReputation struct {
	ID         core.PeerID
	Inbound    bool
	BanScore   int
	GoodScore  int
	Reputation int

	Netgroup         string
	EngineReputation float64
}

// RankPeers returns every connected peer ordered by ascending reputation —
// the non-binary peer-health view the paper proposes building from retained
// scores. With the reputation engine installed the order is its decayed
// trust−misbehavior ranking (the same one eviction uses); otherwise the
// tracker's integer reputation.
func (n *Node) RankPeers() []PeerReputation {
	n.mu.Lock()
	peers := make([]*peer.Peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()

	e := n.cfg.Reputation
	out := make([]PeerReputation, 0, len(peers))
	for _, p := range peers {
		id := p.ID()
		pr := PeerReputation{
			ID:         id,
			Inbound:    p.Inbound(),
			BanScore:   n.tracker.Score(id),
			GoodScore:  n.tracker.GoodScore(id),
			Reputation: n.tracker.Reputation(id),
		}
		if e != nil {
			pr.Netgroup = e.GroupOf(id)
			pr.EngineReputation = e.Score(id).Reputation
		}
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if e != nil && out[i].EngineReputation != out[j].EngineReputation {
			return out[i].EngineReputation < out[j].EngineReputation
		}
		if out[i].Reputation != out[j].Reputation {
			return out[i].Reputation < out[j].Reputation
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// disconnectNetgroup drops every connected peer whose identifier maps into
// the collectively banned group. Called from the misbehave path — which
// runs on a member peer's read loop — so it must only Disconnect (async
// teardown), never wait for shutdown.
func (n *Node) disconnectNetgroup(e *reputation.Engine, group string) {
	n.mu.Lock()
	members := make([]*peer.Peer, 0, 4)
	for id, p := range n.peers {
		if e.GroupOf(id) == group {
			members = append(members, p)
		}
	}
	n.mu.Unlock()
	for _, p := range members {
		p.Disconnect()
	}
	if m := n.metrics; m != nil {
		m.event(telemetry.EventConnRefused, group, "", 0, "netgroup-ban")
	}
}

// Connect opens an outbound connection to addr and performs our half of the
// version handshake. Sentinel errors classify the failure: ErrPeerBanned,
// ErrAlreadyConnected, and ErrOutboundSlotsFull mean the target or slot
// state rules the attempt out; anything else is a transient dial failure
// worth retrying.
func (n *Node) Connect(addr string) error {
	if n.cfg.Dialer == nil {
		return errors.New("node has no dialer configured")
	}
	remote := core.PeerIDFromAddr(addr)
	if n.tracker.IsBanned(remote) {
		return fmt.Errorf("%w: %s", ErrPeerBanned, remote)
	}

	n.mu.Lock()
	if _, connected := n.peers[remote]; connected {
		n.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrAlreadyConnected, remote)
	}
	// Claiming the target in the dialing set serializes outbound attempts
	// per identifier: without it, two slot keepers picking the same
	// candidate would race their registrations in startPeer, and the
	// loser's slot increment would never be rolled back.
	if _, inflight := n.dialing[remote]; inflight {
		n.mu.Unlock()
		return fmt.Errorf("%w: dial in flight to %s", ErrAlreadyConnected, remote)
	}
	if n.outbound >= DefaultMaxOutbound {
		n.mu.Unlock()
		return fmt.Errorf("%w [%d]", ErrOutboundSlotsFull, DefaultMaxOutbound)
	}
	n.outbound++
	n.dialing[remote] = struct{}{}
	n.mu.Unlock()

	conn, err := n.dial(addr)
	if err != nil {
		n.mu.Lock()
		n.outbound--
		delete(n.dialing, remote)
		n.mu.Unlock()
		return fmt.Errorf("dial %s: %w", addr, err)
	}
	n.addrmgr.Add(addr)
	p := n.startPeer(conn, false)
	n.mu.Lock()
	delete(n.dialing, remote)
	n.mu.Unlock()
	n.sendVersion(p)
	return nil
}

// dial invokes the configured Dialer under DialTimeout. The Dialer contract
// has no cancellation, so on expiry (or Stop) the attempt is abandoned: the
// dial goroutine hands its result to a caller that is still waiting, or
// closes the connection if the caller has given up.
func (n *Node) dial(addr string) (net.Conn, error) {
	if n.cfg.DialTimeout <= 0 {
		return n.cfg.Dialer(addr)
	}
	type dialResult struct {
		conn net.Conn
		err  error
	}
	ch := make(chan dialResult) // unbuffered: a send lands only while the caller waits
	abandoned := make(chan struct{})
	//lint:allow gospawn(a hung Dialer would pin a supervised goroutine and deadlock Stop; the goroutine closes what an abandoned dial returns)
	go func() {
		conn, err := n.cfg.Dialer(addr)
		select {
		case ch <- dialResult{conn, err}:
		case <-abandoned:
			if err == nil && conn != nil {
				conn.Close()
			}
		}
	}()
	timer := time.NewTimer(n.cfg.DialTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.conn, r.err
	case <-timer.C:
		close(abandoned)
		return nil, ErrDialTimeout
	case <-n.quit:
		close(abandoned)
		return nil, ErrNodeStopped
	}
}

// startPeer wires a connection into the dispatch pipeline.
func (n *Node) startPeer(conn net.Conn, inbound bool) *peer.Peer {
	pcfg := peer.Config{
		Net:            n.cfg.ChainParams.Net,
		IdleTimeout:    n.cfg.IdleTimeout,
		WriteTimeout:   n.cfg.WriteTimeout,
		Tracer:         n.cfg.Tracer,
		Runner:         n.cfg.PeerRunner,
		SendQueueDepth: n.cfg.PeerSendQueue,
		OnMessage:      n.handleMessage,
		// No OnMalformed: a message the wire layer rejects never reaches
		// misbehavior processing — the peer is dropped without scoring.
		OnDisconnect: n.peerDisconnected,
		OnWriteTimeout: func(p *peer.Peer) {
			n.writeTimeouts.Add(1)
			if m := n.metrics; m != nil {
				m.event(telemetry.EventPeerDisconnect, string(p.ID()), "", 0, "write-timeout")
			}
		},
	}
	if m := n.metrics; m != nil {
		pcfg.OnSend = func(cmd string, bytes int) {
			m.countTx(cmd)
		}
	}
	p := peer.New(conn, inbound, pcfg)

	// A new connection from an identifier we already track supersedes the
	// old one (the fabric reuses source addresses freely). Retire the old
	// peer fully first — its disconnect path runs synchronously here, so
	// slot counts and tracker state settle before the new registration.
	// Registration and Start happen under the lock as one step: any peer
	// another goroutine can find in the map is already started, so its
	// WaitForShutdown never races our Start.
	for {
		n.mu.Lock()
		old, exists := n.peers[p.ID()]
		if !exists {
			n.peers[p.ID()] = p
			n.armHandshakeWatchdog(p)
			p.Start()
			n.mu.Unlock()
			break
		}
		n.mu.Unlock()
		old.Disconnect()
		old.WaitForShutdown()
	}
	if m := n.metrics; m != nil {
		direction := "outbound"
		if inbound {
			direction = "inbound"
		}
		m.event(telemetry.EventPeerConnect, string(p.ID()), "", 0, direction)
	}

	// A connection racing node shutdown would otherwise outlive Stop's
	// peer snapshot; tear it down immediately.
	select {
	case <-n.quit:
		p.Disconnect()
		p.WaitForShutdown()
	default:
	}
	return p
}

// armHandshakeWatchdog disconnects p if its VERSION/VERACK exchange has not
// completed within HandshakeTimeout, reclaiming a slot an unresponsive (or
// deliberately silent) remote would otherwise pin. The timer's closure holds
// the peer — send queue, conn and pipe buffers — so it is kept in watchdogs
// for peerDisconnected to stop: nothing the node schedules may keep a peer
// reachable past its teardown, or an attacker's closed connections would
// size the victim's heap for HandshakeTimeout each. Called with n.mu held,
// at registration, so the entry exists before the peer can disconnect.
func (n *Node) armHandshakeWatchdog(p *peer.Peer) {
	timeout := n.cfg.HandshakeTimeout
	if timeout <= 0 {
		return
	}
	n.watchdogs[p] = time.AfterFunc(timeout, func() {
		// Still registered means still holding a slot: a peer that
		// disconnected for another reason had its timer stopped and is not
		// a handshake timeout.
		n.mu.Lock()
		_, live := n.watchdogs[p]
		delete(n.watchdogs, p)
		n.mu.Unlock()
		if !live || p.HandshakeComplete() {
			return
		}
		n.handshakeTimeouts.Add(1)
		if m := n.metrics; m != nil {
			m.event(telemetry.EventPeerDisconnect, string(p.ID()), "", 0, "handshake-timeout")
		}
		p.Disconnect()
	})
}

// sendVersion queues our VERSION message to the peer.
func (n *Node) sendVersion(p *peer.Peer) {
	localAddr := wire.NewNetAddressIPPort(net.IPv4zero, 0, n.cfg.Services)
	remoteAddr := wire.NewNetAddressIPPort(net.IPv4zero, 0, 0)
	v := wire.NewMsgVersion(localAddr, remoteAddr, n.nonce, n.chain.BestHeight())
	v.UserAgent = n.cfg.UserAgent
	v.Timestamp = n.cfg.Clock()
	if err := p.QueueMessage(v); err == nil {
		p.MarkVersionSent()
	}
}

// peerDisconnected cleans up and, for outbound peers, schedules the
// replacement connection whose rate the detection engine watches.
func (n *Node) peerDisconnected(p *peer.Peer) {
	n.mu.Lock()
	// Pointer equality matters: a reconnection from the same [IP:Port] may
	// already occupy the map slot, and decrementing counts for a peer we
	// no longer track would corrupt slot accounting.
	if cur, known := n.peers[p.ID()]; !known || cur != p {
		n.mu.Unlock()
		return
	}
	delete(n.peers, p.ID())
	if t := n.watchdogs[p]; t != nil {
		t.Stop()
		delete(n.watchdogs, p)
	}
	delete(n.headerCount, p.ID())
	delete(n.filters, p.ID())
	if p.Inbound() {
		n.inbound--
	} else {
		n.outbound--
	}
	n.mu.Unlock()
	n.forgetScore(p.ID())
	if m := n.metrics; m != nil {
		m.peerRetired(p.BytesReceived(), p.BytesSent(), p.RepliesShed())
		direction := "outbound"
		if p.Inbound() {
			direction = "inbound"
		}
		m.event(telemetry.EventPeerDisconnect, string(p.ID()), "", 0, direction)
	}

	select {
	case <-n.quit:
		return
	default:
	}
	if !p.Inbound() && !n.cfg.DisableReconnect && n.cfg.Dialer != nil {
		n.pendingOutbound.Add(1)
		n.spawn(func() {
			defer n.pendingOutbound.Add(-1)
			n.keepOutboundSlot(p.Addr())
		})
	}
}

// pickReconnectCandidate chooses the address for the next refill attempt:
// a fresh, unbanned, unconnected entry from the peer table, falling back to
// the lost address. Empty means nothing is currently dialable (everything
// is banned or connected) — the keeper waits and asks again, since bans
// expire.
func (n *Node) pickReconnectCandidate(lostAddr string) string {
	candidate := n.addrmgr.Pick(func(addr string) bool {
		if n.tracker.IsBanned(core.PeerIDFromAddr(addr)) {
			return true
		}
		id := core.PeerIDFromAddr(addr)
		n.mu.Lock()
		_, connected := n.peers[id]
		if !connected {
			_, connected = n.dialing[id]
		}
		n.mu.Unlock()
		return connected
	})
	if candidate == "" && !n.tracker.IsBanned(core.PeerIDFromAddr(lostAddr)) {
		candidate = lostAddr
	}
	return candidate
}

// keepOutboundSlot is the supervised replacement for the old fire-and-forget
// reconnect goroutine, which abandoned the slot on the first dial error. It
// retries with capped exponential backoff plus jitter until the slot is
// refilled — by this keeper or a concurrent one — or the node stops. Every
// attempt is reported to telemetry and the reconnection-rate feature the
// detection engine watches.
func (n *Node) keepOutboundSlot(lostAddr string) {
	backoff := n.cfg.ReconnectBackoff
	rng := rand.New(rand.NewSource(int64(addrSeed(lostAddr))))
	for {
		select {
		case <-n.quit:
			return
		default:
		}

		var err error
		candidate := n.pickReconnectCandidate(lostAddr)
		if candidate == "" {
			err = ErrPeerBanned // nothing dialable right now; bans expire, so wait
		} else {
			err = n.Connect(candidate)
		}
		n.reconnectAttempts.Add(1)
		if m := n.metrics; m != nil {
			m.reconnectAttempt(err)
		}

		switch {
		case err == nil:
			n.reconnections.Add(1)
			if m := n.metrics; m != nil {
				m.event(telemetry.EventReconnect, string(core.PeerIDFromAddr(candidate)), "", 0, "")
			}
			if n.cfg.Tap != nil {
				n.cfg.Tap.OnOutboundReconnect(n.cfg.Clock())
			}
			return
		case errors.Is(err, ErrOutboundSlotsFull), errors.Is(err, ErrAlreadyConnected):
			// The slot this keeper was guarding has been refilled some
			// other way; its job is done.
			return
		case errors.Is(err, ErrNodeStopped):
			return
		}

		sleep := backoff + time.Duration(rng.Int63n(int64(backoff)/2+1))
		if backoff *= 2; backoff > n.cfg.ReconnectMaxBackoff {
			backoff = n.cfg.ReconnectMaxBackoff
		}
		select {
		case <-n.quit:
			return
		case <-time.After(sleep):
		}
	}
}

// addrSeed derives a stable per-address jitter seed (FNV-1a) so keeper
// backoff schedules are reproducible in tests.
func addrSeed(addr string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

// DisconnectPeer drops the connection to the given identifier.
func (n *Node) DisconnectPeer(id core.PeerID) bool {
	n.mu.Lock()
	p, ok := n.peers[id]
	n.mu.Unlock()
	if !ok {
		return false
	}
	p.Disconnect()
	return true
}

// Peer returns the connected peer with the given identifier.
func (n *Node) Peer(id core.PeerID) (*peer.Peer, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.peers[id]
	return p, ok
}

// PeerCount returns (inbound, outbound) connection counts.
func (n *Node) PeerCount() (int, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inbound, n.outbound
}

// StoredBlock returns a block the node has fully processed.
func (n *Node) StoredBlock(hash *chainhash.Hash) (*wire.MsgBlock, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b, ok := n.blockStore[*hash]
	return b, ok
}

// Stop shuts the node down: listeners close, peers disconnect, loops drain.
func (n *Node) Stop() {
	n.quitOnce.Do(func() { close(n.quit) })
	n.mu.Lock()
	listeners := append([]net.Listener(nil), n.listeners...)
	peers := make([]*peer.Peer, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	for _, l := range listeners {
		l.Close()
	}
	for _, p := range peers {
		p.Disconnect()
		p.WaitForShutdown()
	}
	n.wg.Wait()
}
