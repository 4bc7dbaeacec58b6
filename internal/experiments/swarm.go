package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/simnet"
	"banscore/internal/swarm"
	"banscore/internal/wire"
)

// SwarmConfig parameterizes the Sybil-swarm scale scenario: the largest
// attack shape in the paper's threat model — tens of thousands of
// distinct identities hammering one victim at once — run in a single
// process on the event-loop engine, where the goroutine-pair-per-peer
// design would need 200k goroutines before the first ban lands.
type SwarmConfig struct {
	// Attackers is the number of distinct Sybil identities. Each earns a
	// ban by streaming duplicate VERSION messages (1 point each, so
	// exactly BanThreshold duplicates).
	Attackers int

	// ChurnEvery makes every k-th identity disconnect after half its
	// flood and reconnect to start over — the churn-heavy shape that
	// stresses arena slot reuse and the tracker's forget-on-disconnect.
	// Zero disables churn.
	ChurnEvery int

	// Shards overrides the engine's worker-pool width; zero auto-sizes.
	Shards int

	// Workers bounds the attacker-side sender pool; zero selects 32.
	// Attackers are identities, not goroutines: a few dozen senders
	// multiplex the entire swarm.
	Workers int

	// Timeout aborts the scenario; zero selects 2 minutes + 1ms per
	// attacker (100k identities stream ~1.3 GB through the fabric).
	Timeout time.Duration
}

// SwarmResult is the scenario's measured outcome.
type SwarmResult struct {
	Attackers int `json:"attackers"`
	Churned   int `json:"churned"`
	Banned    int `json:"banned"`

	// PeakLive is the most simultaneously connected peers the engine
	// reported — the "concurrent simulated peers" headline number.
	PeakLive int `json:"peak_live"`

	AdmitSeconds  float64 `json:"admit_seconds"`
	AbsorbSeconds float64 `json:"absorb_seconds"`

	// PeersPerSec is the admission rate: identities connected and
	// registered with the event loop per second.
	PeersPerSec float64 `json:"peers_per_sec"`

	// MsgsPerSec is the victim-side absorption rate while the flood and
	// the banning it provokes are in progress.
	MsgsPerSec float64 `json:"msgs_per_sec"`

	MessagesProcessed uint64 `json:"messages_processed"`
	EngineShards      int    `json:"engine_shards"`

	// Engine is the event loop's own account of the run (swarm.Stats says
	// what it leaves out).
	Engine swarm.Stats `json:"engine"`
}

// Render formats the result as the experiment suite's tables are
// rendered.
func (r SwarmResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sybil swarm at scale (event-loop engine, %d shards)\n", r.EngineShards)
	fmt.Fprintf(&b, "  identities      %d (churned %d)\n", r.Attackers, r.Churned)
	fmt.Fprintf(&b, "  banned          %d\n", r.Banned)
	fmt.Fprintf(&b, "  peak live       %d peers\n", r.PeakLive)
	fmt.Fprintf(&b, "  admission       %.0f peers/s (%.2fs)\n", r.PeersPerSec, r.AdmitSeconds)
	fmt.Fprintf(&b, "  absorption      %.0f msgs/s (%.2fs, %d messages)\n", r.MsgsPerSec, r.AbsorbSeconds, r.MessagesProcessed)
	fmt.Fprintf(&b, "  event loop      %d visits (%d on a spent read budget), %d hits in %d flushes, at most %d staged\n",
		r.Engine.Visits, r.Engine.BudgetExhausted, r.Engine.HitsFlushed, r.Engine.Flushes, r.Engine.MaxStaged)
	return b.String()
}

// swarmIdentity derives the i-th attacker's source address: unique IPs
// across 10.{1..}.x.y so the swarm spans many netgroups, one fixed port.
func swarmIdentity(i int) string {
	return fmt.Sprintf("10.%d.%d.%d:4001", 1+(i>>16), (i>>8)&0xff, i&0xff)
}

// swarmFrames pre-encodes the attacker byte streams once: every identity
// writes identical bytes (the victim only compares VERSION nonces against
// its own), so the whole swarm floods from two shared slabs.
func swarmFrames() (handshake, flood []byte, err error) {
	me := wire.NewNetAddressIPPort(net.IPv4(10, 1, 0, 0), 4001, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4(10, 0, 0, 1), 8333, wire.SFNodeNetwork)
	version := wire.NewMsgVersion(me, you, 0x5712a1, 0)

	var hs bytes.Buffer
	if _, err = wire.WriteMessage(&hs, version, wire.ProtocolVersion, wire.SimNet); err != nil {
		return
	}
	if _, err = wire.WriteMessage(&hs, &wire.MsgVerAck{}, wire.ProtocolVersion, wire.SimNet); err != nil {
		return
	}

	var dup bytes.Buffer
	if _, err = wire.WriteMessage(&dup, version, wire.ProtocolVersion, wire.SimNet); err != nil {
		return
	}
	// Each duplicate VERSION scores 1 (Table I): exactly BanThreshold of
	// them cross the default threshold; one extra absorbs a frame lost to
	// the disconnect racing the final flush.
	return hs.Bytes(), bytes.Repeat(dup.Bytes(), core.DefaultBanThreshold+1), nil
}

// Swarm runs the Sybil-swarm scenario: Attackers identities connect to
// one victim whose connections are pumped by the event-loop engine with
// per-shard batched ban application, flood duplicate VERSIONs until every
// identity is banned, and the admission and absorption rates are measured.
// Ban correctness is exact: the scenario fails unless all identities end
// banned (churned identities included — the tracker forgets their partial
// score on disconnect, so their second session must re-earn the full
// threshold).
func Swarm(cfg SwarmConfig) (SwarmResult, error) {
	if cfg.Attackers <= 0 {
		cfg.Attackers = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 32
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2*time.Minute + time.Duration(cfg.Attackers)*time.Millisecond
	}
	deadline := clk.Now().Add(cfg.Timeout)

	fabric := simnet.NewNetwork()
	defer fabric.Close()
	fabric.SetListenBacklog(8192)

	a, err := node.Assemble(node.Options{
		Config: node.Config{
			MaxInbound:       cfg.Attackers + 8,
			DisableReconnect: true,
			// 100k handshake watchdog timers would dominate the run; the
			// swarm's handshakes complete from pre-buffered bytes anyway.
			HandshakeTimeout: -1,
			// The victim sends each attacker only a handful of messages
			// (VERSION, VERACK, stray replies); the default 1024-slot queue
			// would cost ~5 GB of preallocated buffers at 100k peers.
			PeerSendQueue: 64,
		},
		Fabric: fabric,
		Listen: "10.0.0.1:8333",
		Swarm:  &swarm.Config{Shards: cfg.Shards},
	})
	if err != nil {
		return SwarmResult{}, err
	}
	defer a.Close()
	victim, eng := a.Node, a.Swarm

	handshake, flood, err := swarmFrames()
	if err != nil {
		return SwarmResult{}, err
	}

	res := SwarmResult{Attackers: cfg.Attackers, EngineShards: eng.Shards()}

	// Phase 1 — admission: every identity dials and writes its handshake.
	// Dials race the victim's accept loop; a full backlog refuses the
	// dial, and the worker retries after yielding.
	conns := make([]*simnet.Conn, cfg.Attackers)
	admitStart := clk.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.Attackers; i += cfg.Workers {
				conn, err := swarmDial(fabric, swarmIdentity(i), deadline)
				if err != nil {
					errCh <- fmt.Errorf("attacker %d: %w", i, err)
					return
				}
				conns[i] = conn
				if _, err := conn.Write(handshake); err != nil {
					errCh <- fmt.Errorf("attacker %d handshake: %w", i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return res, err
	default:
	}
	for eng.Admitted() < uint64(cfg.Attackers) {
		if clk.Now().After(deadline) {
			return res, fmt.Errorf("admission stalled at %d/%d peers", eng.Admitted(), cfg.Attackers)
		}
		clk.Sleep(time.Millisecond)
	}
	res.AdmitSeconds = clk.Since(admitStart).Seconds()
	res.PeersPerSec = float64(cfg.Attackers) / res.AdmitSeconds
	res.PeakLive = eng.Live()

	// Phase 2 — absorption: flood the duplicates. Churned identities
	// write half, drop, wait out the victim's forget, reconnect, and
	// restart from zero. Write errors past this point are the ban's
	// disconnect racing the tail of the flood — expected, not failures.
	absorbStart := clk.Now()
	baseMsgs := victim.Stats().MessagesProcessed
	half := len(flood) / 2
	churned := 0
	var churnMu sync.Mutex
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.Attackers; i += cfg.Workers {
				conn := conns[i]
				if cfg.ChurnEvery > 0 && i%cfg.ChurnEvery == 0 {
					if c, ok := swarmChurn(fabric, victim, conn, swarmIdentity(i), handshake, flood[:half], deadline); ok {
						conn, conns[i] = c, c
						churnMu.Lock()
						churned++
						churnMu.Unlock()
					}
				}
				conn.Write(flood)
			}
		}(w)
	}
	wg.Wait()

	// Every identity must end banned — the exact-correctness assertion
	// that the batched path bans neither early nor late.
	for {
		banned := 0
		for i := 0; i < cfg.Attackers; i++ {
			if victim.Tracker().IsBanned(core.PeerIDFromAddr(swarmIdentity(i))) {
				banned++
			}
		}
		res.Banned = banned
		if banned == cfg.Attackers {
			break
		}
		if clk.Now().After(deadline) {
			return res, fmt.Errorf("swarm stalled: %d/%d identities banned", banned, cfg.Attackers)
		}
		clk.Sleep(5 * time.Millisecond)
	}
	res.AbsorbSeconds = clk.Since(absorbStart).Seconds()
	res.MessagesProcessed = victim.Stats().MessagesProcessed - baseMsgs
	res.MsgsPerSec = float64(res.MessagesProcessed) / res.AbsorbSeconds
	res.Churned = churned
	res.Engine = eng.Stats()

	for i := range conns {
		if conns[i] != nil {
			conns[i].Close()
		}
	}
	return res, nil
}

// swarmDial dials with retry: a refused dial means the accept backlog is
// momentarily full, not a scenario failure.
func swarmDial(fabric *simnet.Network, from string, deadline time.Time) (*simnet.Conn, error) {
	for {
		conn, err := fabric.Dial(from, "10.0.0.1:8333")
		if err == nil {
			return conn, nil
		}
		if !errors.Is(err, simnet.ErrConnRefused) {
			return nil, err
		}
		if clk.Now().After(deadline) {
			return nil, fmt.Errorf("dial retries exhausted: %w", err)
		}
		clk.Sleep(time.Millisecond)
	}
}

// swarmChurn plays one identity's churn: write half the flood, drop the
// connection, wait until the victim has forgotten the session (so the
// score restarts from zero, as Bitcoin Core's forget-on-disconnect does),
// then reconnect and re-handshake. Returns the fresh connection, or
// ok=false if the churn could not complete before the deadline (the
// caller then just floods the original identity's replacement).
func swarmChurn(fabric *simnet.Network, victim *node.Node, conn *simnet.Conn, from string, handshake, halfFlood []byte, deadline time.Time) (*simnet.Conn, bool) {
	if _, err := conn.Write(halfFlood); err != nil {
		return nil, false
	}
	conn.Close()
	id := core.PeerIDFromAddr(from)
	for {
		if _, connected := victim.Peer(id); !connected {
			break
		}
		if clk.Now().After(deadline) {
			return nil, false
		}
		clk.Sleep(time.Millisecond)
	}
	c, err := swarmDial(fabric, from, deadline)
	if err != nil {
		return nil, false
	}
	if _, err := c.Write(handshake); err != nil {
		return nil, false
	}
	return c, true
}
