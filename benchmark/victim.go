package main

import (
	"fmt"
	"os"
	"sync"

	"banscore/internal/banstore"
	"banscore/internal/core"
	"banscore/internal/detect"
	"banscore/internal/node"
	"banscore/internal/reputation"
	"banscore/internal/simnet"
	"banscore/internal/swarm"
	"banscore/internal/telemetry"
	"banscore/internal/trace"
)

// victimAddr is where every victim listens.
const victimAddr = "10.0.0.1:8333"

// victimKind selects one of the three victim assemblies the workloads use.
// Each is built here from the packages' public constructors, not through
// internal/experiments or internal/chaos, so a refactor of those cannot move
// the yardstick.
type victimKind int

const (
	// victimFull: the default goroutine pump with the production-resting
	// observability stack on — registry and journal, tracer enabled at
	// 1-in-64, the detection monitor as tap, the forensics ledger. Miner
	// off. GOMAXPROCS, GOGC and every other node setting at the default.
	victimFull victimKind = iota

	// victimSwarm: a bare node pumped by the swarm event loop with batched
	// misbehavior application, configured as experiments.Swarm does.
	victimSwarm

	// victimDurable: victimFull plus the crash-safe ban store (default
	// FsyncBatch, in a temporary directory) and the reputation engine.
	victimDurable
)

// victimOptions are the knobs a workload sets. mode exists so the self-tests
// can hand a workload a deliberately wrong victim and see its check fire.
type victimOptions struct {
	kind       victimKind
	mode       core.Mode // zero selects ModeStandard
	identities int       // victimSwarm: sizes MaxInbound
	storeDir   string    // victimDurable: reuse this directory (reopen)
}

type victim struct {
	fabric   *simnet.Network
	node     *node.Node
	registry *telemetry.Registry
	engine   *swarm.Engine
	store    *banstore.Store

	recovered *banstore.Recovered
	storeDir  string
	ownsDir   bool

	mu       sync.Mutex
	bans     int // OnBan calls
	offScore int // bans whose score was not exactly the threshold
}

// observability builds the production-resting stack and wires it as
// cmd/btcnode does.
func (v *victim) observability(cfg *node.Config) {
	v.registry = telemetry.NewRegistry()
	journal := telemetry.NewJournal(0)
	monitor := detect.NewMonitor(detect.DefaultWindow)
	tracer := trace.New(trace.Config{SampleN: trace.DefaultSampleN})
	monitor.Instrument(v.registry, journal)
	journal.Instrument(v.registry)
	tracer.Instrument(v.registry)
	monitor.SetTracer(tracer)
	tracer.Enable()
	cfg.Tap = monitor
	cfg.Telemetry = v.registry
	cfg.Journal = journal
	cfg.Tracer = tracer
	cfg.Forensics = core.NewLedger(0, 0)
}

func newVictim(opts victimOptions) (*victim, error) {
	v := &victim{fabric: simnet.NewNetwork()}
	cfg := node.Config{
		DisableReconnect: true,
		TrackerConfig: core.Config{
			Mode: opts.mode,
			OnBan: func(_ core.PeerID, score int) {
				v.mu.Lock()
				v.bans++
				if score != core.DefaultBanThreshold {
					v.offScore++
				}
				v.mu.Unlock()
			},
		},
	}
	switch opts.kind {
	case victimFull:
		v.observability(&cfg)
	case victimSwarm:
		v.fabric.SetListenBacklog(8192)
		v.engine = swarm.NewEngine(swarm.Config{
			NewBatch: func() swarm.Batcher { return v.node.NewMisbehaviorBatch() },
		})
		cfg.PeerRunner = v.engine
		cfg.MaxInbound = opts.identities + 8
		cfg.HandshakeTimeout = -1
		cfg.PeerSendQueue = 64
	case victimDurable:
		v.observability(&cfg)
		v.storeDir = opts.storeDir
		if v.storeDir == "" {
			dir, err := os.MkdirTemp("", tempPrefix+"wal-")
			if err != nil {
				v.fabric.Close()
				return nil, fmt.Errorf("ban store directory: %w", err)
			}
			v.storeDir, v.ownsDir = dir, true
		}
		// Everything at the default (FsyncBatch, 100 ms window) but the
		// backlog cap. At the default 1 MB — some 30 ms of this workload's
		// records — one slow fsync in the sandbox's temp dir makes the store
		// shed, and a workload that sheds one run in five measures the
		// sandbox's writeback, not the WAL path. Shedding still fails the run.
		store, recovered, err := banstore.Open(banstore.Options{Dir: v.storeDir, MaxBacklogBytes: 64 << 20})
		if err != nil {
			v.fabric.Close()
			v.removeDir()
			return nil, fmt.Errorf("open ban store: %w", err)
		}
		v.store, v.recovered = store, recovered
		store.Instrument(v.registry)
		cfg.BanStore = store
		cfg.BanStoreRecovered = recovered
		cfg.Reputation = reputation.New(reputation.Config{Recorder: store})
		cfg.Reputation.Instrument(v.registry)
	}
	v.node = node.New(cfg)
	l, err := v.fabric.Listen(victimAddr)
	if err != nil {
		v.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	v.node.Serve(l)
	return v, nil
}

// banCounts returns how many bans the tracker announced and how many of
// them landed on a score other than exactly the threshold.
func (v *victim) banCounts() (bans, offScore int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.bans, v.offScore
}

// closeStore closes the ban store (draining the WAL writer) and returns its
// final status. The directory stays, for a reopen.
func (v *victim) closeStore() (banstore.Status, error) {
	if v.store == nil {
		return banstore.Status{}, nil
	}
	st := v.store.Status()
	err := v.store.Close()
	v.store = nil
	return st, err
}

func (v *victim) removeDir() {
	if v.ownsDir && v.storeDir != "" {
		_ = os.RemoveAll(v.storeDir) // leakCheck reports a directory left behind
	}
}

// close stops everything the victim started, in dependency order.
func (v *victim) close() {
	if v.node != nil {
		v.node.Stop()
	}
	if v.engine != nil {
		v.engine.Stop()
	}
	if v.store != nil {
		_ = v.store.Close() // status already read by the workload; nothing to report to
		v.store = nil
	}
	v.fabric.Close()
	v.removeDir()
}
