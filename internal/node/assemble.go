package node

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"banscore/internal/banstore"
	"banscore/internal/core"
	"banscore/internal/detect"
	"banscore/internal/reputation"
	"banscore/internal/simnet"
	"banscore/internal/swarm"
	"banscore/internal/telemetry"
	"banscore/internal/trace"
)

// Options parameterizes Assemble. The embedded Config is the node's own;
// components set there (a shared tracer, ledger, registry, engine or store)
// are handed in, and the assembly instruments and mounts them exactly like
// the ones it creates itself.
type Options struct {
	Config

	// Store, when non-nil, opens the crash-safe ban store at Store.Dir
	// before anything else, so the engine records into it and New restores
	// the recovered state ahead of the first accepted connection.
	Store *banstore.Options

	// Engine, when non-nil, builds Config.Reputation from it, with the store
	// (if any) as its Recorder.
	Engine *reputation.Config

	// Observe creates a registry and journal (unless Config carries them)
	// and the telemetry server that mounts every component's handler.
	Observe bool

	// Trace, when non-nil, creates Config.Tracer from it (and
	// Config.Forensics, unless handed in) and enables it. A tracer handed
	// in through Config keeps its enabled state.
	Trace *trace.Config

	// Fabric, when non-nil, is the simnet the node serves on: it listens
	// there at Listen and dials from Listen's host at ports 40001, 40002, …
	// Nil serves on TCP.
	Fabric *simnet.Network

	// Listen is the address the node accepts connections on.
	Listen string

	// Swarm, when non-nil, pumps every peer through a swarm event loop
	// whose shards stage misbehavior into batches bound to the node.
	Swarm *swarm.Config
}

// Assembly is one wired and serving node plus every component around it.
// Fields the options did not ask for are nil.
type Assembly struct {
	Node *Node

	// Store is the ban store the assembly opened or was handed. Recovered
	// is what Open salvaged: it views the segment image Open read, so a
	// long-lived caller drops it once reported.
	Store     *banstore.Store
	Recovered *banstore.Recovered

	Registry  *telemetry.Registry
	Journal   *telemetry.Journal
	Tracer    *trace.Tracer
	Forensics *core.Ledger
	Server    *telemetry.Server

	Fabric *simnet.Network
	Swarm  *swarm.Engine
	Addr   net.Addr

	closeOnce sync.Once
	closeErr  error
}

// Assemble builds and serves a node in one fixed order: open the store,
// build the reputation engine recording into it, create the observability
// components the options ask for, New (which restores the recovered state),
// instrument every component and mount its /debug handler, with the health
// probe, on one server, then listen and Serve.
func Assemble(o Options) (*Assembly, error) {
	cfg := o.Config
	if cfg.Dialer == nil && o.Fabric == nil {
		cfg.Dialer = func(remote string) (net.Conn, error) { return net.Dial("tcp", remote) }
	} else if cfg.Dialer == nil {
		host, _, err := net.SplitHostPort(o.Listen)
		if err != nil {
			return nil, fmt.Errorf("listen address: %w", err)
		}
		var ports atomic.Uint32
		cfg.Dialer = func(remote string) (net.Conn, error) {
			port := 40000 + ports.Add(1)
			return o.Fabric.Dial(net.JoinHostPort(host, strconv.Itoa(int(port))), remote)
		}
	}
	a := &Assembly{Fabric: o.Fabric, Store: cfg.BanStore}

	if o.Store != nil {
		s, rec, err := banstore.Open(*o.Store)
		if err != nil {
			return nil, fmt.Errorf("banstore: %w", err)
		}
		a.Store, a.Recovered = s, rec
		cfg.BanStore, cfg.BanStoreRecovered = s, rec
	}

	if o.Engine != nil {
		rc := *o.Engine
		if rc.Recorder == nil && a.Store != nil {
			rc.Recorder = a.Store
		}
		cfg.Reputation = reputation.New(rc)
	}

	if o.Observe {
		if cfg.Telemetry == nil {
			cfg.Telemetry = telemetry.NewRegistry()
		}
		if cfg.Journal == nil {
			cfg.Journal = telemetry.NewJournal(0)
		}
	}
	ownTracer := o.Trace != nil && cfg.Tracer == nil
	if ownTracer {
		cfg.Tracer = trace.New(*o.Trace)
	}
	if o.Trace != nil && cfg.Forensics == nil {
		cfg.Forensics = core.NewLedger(0, 0)
	}
	a.Registry, a.Journal, a.Tracer, a.Forensics = cfg.Telemetry, cfg.Journal, cfg.Tracer, cfg.Forensics

	if o.Swarm != nil {
		sc := *o.Swarm
		sc.NewBatch = func() swarm.Batcher { return a.Node.NewMisbehaviorBatch() }
		a.Swarm = swarm.NewEngine(sc)
		cfg.PeerRunner = a.Swarm
	}

	a.Node = New(cfg)
	a.wire()
	if ownTracer {
		a.Tracer.Enable()
	}

	var l net.Listener
	var err error
	if o.Fabric != nil {
		l, err = o.Fabric.Listen(o.Listen)
	} else {
		l, err = net.Listen("tcp", o.Listen)
	}
	if err != nil {
		a.Close()
		return nil, fmt.Errorf("listen %s: %w", o.Listen, err)
	}
	a.Addr = l.Addr()
	a.Node.Serve(l)
	return a, nil
}

// wire threads the tracer through the fabric and the detection monitor,
// registers every held component's series on the registry, and builds the
// server that mounts every /debug handler and the node's health probe.
func (a *Assembly) wire() {
	monitor, _ := a.Node.cfg.Tap.(*detect.Monitor)
	if t := a.Tracer; t != nil {
		if a.Fabric != nil {
			a.Fabric.SetTracer(t)
		}
		if monitor != nil {
			monitor.SetTracer(t)
		}
	}
	reg := a.Registry
	if reg == nil {
		return
	}
	a.Server = telemetry.NewServer(reg, a.Journal)
	a.Server.SetHealth(a.Node.Health)
	a.Journal.Instrument(reg)
	if monitor != nil {
		monitor.Instrument(reg, a.Journal)
	}
	if a.Fabric != nil {
		a.Fabric.Instrument(reg)
	}
	if t := a.Tracer; t != nil {
		t.Instrument(reg)
		a.Server.Handle("/debug/trace", t.QueryHandler())
		a.Server.Handle("/debug/trace/export", t.ExportHandler())
	}
	if l := a.Forensics; l != nil {
		h := l.Handler(a.Node.Tracker().IsBanned)
		a.Server.Handle("/debug/bans", h)
		a.Server.Handle("/debug/bans/", h)
	}
	if e := a.Node.Reputation(); e != nil {
		e.Instrument(reg)
		h := e.Handler()
		a.Server.Handle("/debug/reputation", h)
		a.Server.Handle("/debug/reputation/", h)
	}
	if s := a.Store; s != nil {
		s.Instrument(reg)
		a.Server.Handle("/debug/banstore", s.Handler())
	}
}

// Close stops everything the assembly holds in dependency order: the
// server that reads the node, the node, the swarm runner that pumped its
// peers, and last the store. It returns the store's Close error and is safe
// to call twice.
func (a *Assembly) Close() error {
	a.closeOnce.Do(func() {
		if a.Server != nil {
			_ = a.Server.Close()
		}
		if a.Node != nil {
			a.Node.Stop()
		}
		if a.Swarm != nil {
			a.Swarm.Stop()
		}
		if a.Store != nil {
			a.closeErr = a.Store.Close()
		}
	})
	return a.closeErr
}
