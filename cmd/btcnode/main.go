// Command btcnode runs the reproduction's full node on real TCP. It speaks
// the simulation chain (not Bitcoin Mainnet consensus) so private testbeds
// of btcnode/attacker instances can exercise every code path — the ban-score
// mechanism, the attacks, and the detection engine — over genuine sockets.
//
// Usage:
//
//	btcnode -listen :8333 [-connect host:port,...] [-mode standard|infinity|disabled|goodscore]
//	        [-core-version 0.20.0|0.21.0|0.22.0] [-stats 10s] [-telemetry 127.0.0.1:9333]
//	        [-node-id fleet-1]
//	        [-trace] [-trace-sample 64] [-pprof] [-reputation]
//	        [-dial-timeout 10s] [-handshake-timeout 15s] [-write-timeout 30s]
//	        [-reconnect-backoff 100ms] [-reconnect-max-backoff 5s]
//	        [-banstore-dir /var/lib/btcnode/banstore] [-fsync batch] [-snapshot-every 1m]
//
// With -telemetry set, an HTTP endpoint serves /metrics (Prometheus text, or
// ?format=json), /healthz, /events (the typed event journal), and
// /debug/journal (the incremental cursor feed fleet observers poll:
// ?since=<cursor> resumes, and the response's next_cursor + dropped count
// let a poller detect ring-buffer gaps instead of silently missing events).
// /healthz reflects the node's own health probe: it degrades (HTTP 503) on
// an outbound-slot deficit or a saturated ban table, and recovers on its
// own as the slot keepers refill connections. -node-id stamps the node's
// identity on node_info{node_id,version,go_version}, /healthz, and
// /debug/journal so fleet-aggregated telemetry is attributable.
//
// With -trace (requires -telemetry), the message-lifecycle tracer samples
// 1-in-N messages (-trace-sample) through decode, dispatch, ban scoring, and
// send; sampled spans are queryable at /debug/trace and exported as Chrome
// trace-event JSON (chrome://tracing, Perfetto) at /debug/trace/export, and
// every ban-score application is recorded in the forensic ledger served at
// /debug/bans and /debug/bans/<peer>. With -pprof (requires -telemetry), the
// endpoint additionally serves net/http/pprof at /debug/pprof/ and exports Go
// runtime gauges (goroutines, heap, GC) in /metrics.
//
// With -reputation, the evidence-backed netgroup reputation engine layers
// over the tracker: misbehavior decays over time, valid BLOCK/TX delivery
// earns trust, and Sybil identities from one IPv4 /16 (IPv6 /32) draw down
// a shared budget whose exhaustion bans the whole prefix. Engine state is
// served at /debug/reputation and /debug/reputation/<peer> (requires
// -telemetry for the endpoint; the engine itself runs without it). Pair
// with -mode infinity to rely on the engine instead of per-identifier bans.
//
// With -banstore-dir, ban state is crash-safe: every scoring event, ban,
// and reputation change is appended to a write-ahead log in that directory,
// compacted snapshots are written every -snapshot-every, and on startup the
// node recovers the latest valid snapshot plus the WAL tail — truncating,
// never refusing, on a corrupted tail — so banned attackers stay banned
// across restarts. -fsync picks the durability policy: "batch" (default)
// fsyncs at most once per group-commit window, "always" fsyncs every batch,
// "none" leaves flushing to the OS. Store status is served at
// /debug/banstore (with -telemetry).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"banscore/internal/banstore"
	"banscore/internal/core"
	"banscore/internal/detect"
	"banscore/internal/node"
	"banscore/internal/peer"
	"banscore/internal/reputation"
	"banscore/internal/telemetry"
	"banscore/internal/trace"
)

// buildVersion stamps node_info{version=...}; bump alongside releases so a
// fleet scrape can spot version skew across nodes.
const buildVersion = "0.8.0"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "btcnode:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", ":8333", "TCP listen address")
	connect := flag.String("connect", "", "comma-separated outbound peer addresses")
	mode := flag.String("mode", "standard", "tracker mode: standard, infinity, disabled, goodscore")
	coreVersion := flag.String("core-version", "0.20.0", "Table I rule set: 0.20.0, 0.21.0, 0.22.0")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	telemetryAddr := flag.String("telemetry", "", "HTTP address for /metrics, /healthz, /events (empty disables; \":0\" picks a port)")
	nodeID := flag.String("node-id", "", "fleet-unique node identifier stamped on node_info{node_id} and /debug/journal (default: the listen address)")
	traceOn := flag.Bool("trace", false, "enable message-lifecycle tracing + ban forensics at /debug/trace, /debug/bans (requires -telemetry)")
	traceSample := flag.Int("trace-sample", trace.DefaultSampleN, "trace 1 in N messages (rounded up to a power of two; 1 traces everything)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof at /debug/pprof/ and Go runtime gauges in /metrics (requires -telemetry)")
	reputationOn := flag.Bool("reputation", false, "layer the netgroup reputation engine over the tracker (state at /debug/reputation with -telemetry)")
	dialTimeout := flag.Duration("dial-timeout", node.DefaultDialTimeout, "outbound dial deadline (negative disables)")
	handshakeTimeout := flag.Duration("handshake-timeout", node.DefaultHandshakeTimeout, "VERSION/VERACK deadline before a slot is reclaimed (negative disables)")
	writeTimeout := flag.Duration("write-timeout", peer.DefaultWriteTimeout, "per-message write deadline (negative disables)")
	reconnectBackoff := flag.Duration("reconnect-backoff", node.DefaultReconnectBackoff, "initial slot-keeper retry backoff")
	reconnectMaxBackoff := flag.Duration("reconnect-max-backoff", node.DefaultReconnectMaxBackoff, "slot-keeper backoff cap")
	banstoreDir := flag.String("banstore-dir", "", "directory for crash-safe ban-state WAL + snapshots (empty disables persistence)")
	fsyncMode := flag.String("fsync", "batch", "banstore fsync policy: always, batch, none")
	snapshotEvery := flag.Duration("snapshot-every", node.DefaultSnapshotEvery, "banstore snapshot interval (negative disables the scheduler)")
	flag.Parse()

	trackerMode, err := parseMode(*mode)
	if err != nil {
		return err
	}
	version, err := parseVersion(*coreVersion)
	if err != nil {
		return err
	}

	if (*traceOn || *pprofOn) && *telemetryAddr == "" {
		return fmt.Errorf("-trace and -pprof require -telemetry")
	}
	opts := node.Options{
		Config: node.Config{
			TrackerConfig:       core.Config{Mode: trackerMode, Version: version},
			Tap:                 detect.NewMonitor(detect.DefaultWindow),
			DialTimeout:         *dialTimeout,
			HandshakeTimeout:    *handshakeTimeout,
			WriteTimeout:        *writeTimeout,
			ReconnectBackoff:    *reconnectBackoff,
			ReconnectMaxBackoff: *reconnectMaxBackoff,
			SnapshotEvery:       *snapshotEvery,
		},
		Listen:  *listen,
		Observe: *telemetryAddr != "",
	}
	if *banstoreDir != "" {
		policy, err := banstore.ParseFsyncPolicy(*fsyncMode)
		if err != nil {
			return err
		}
		opts.Store = &banstore.Options{Dir: *banstoreDir, Fsync: policy}
	}
	if *reputationOn {
		opts.Engine = &reputation.Config{}
	}
	if *traceOn {
		opts.Trace = &trace.Config{SampleN: *traceSample}
	}
	a, err := node.Assemble(opts)
	if err != nil {
		return err
	}
	defer a.Close()
	n := a.Node

	if srv := a.Server; srv != nil {
		id := *nodeID
		if id == "" {
			id = *listen
		}
		srv.SetNodeID(id)
		telemetry.RegisterNodeInfo(a.Registry, id, buildVersion)
		if *pprofOn {
			telemetry.RegisterRuntimeMetrics(a.Registry)
			srv.EnablePprof()
		}
		addr, err := srv.Start(*telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		fmt.Printf("telemetry at http://%s/metrics (also /healthz, /events)\n", addr)
		if *reputationOn {
			fmt.Printf("reputation engine at http://%s/debug/reputation\n", addr)
		}
		if *traceOn {
			fmt.Printf("tracing 1-in-%d at http://%s/debug/trace (export: /debug/trace/export, forensics: /debug/bans)\n", a.Tracer.SampleN(), addr)
		}
		if *pprofOn {
			fmt.Printf("pprof at http://%s/debug/pprof/\n", addr)
		}
	}
	if rec := a.Recovered; rec != nil {
		fmt.Printf("banstore at %s (fsync=%s): recovered %d WAL records", *banstoreDir, *fsyncMode, len(rec.Records))
		if rec.Snapshot != nil {
			fmt.Printf(" atop snapshot lsn %d", rec.SnapshotLSN)
		}
		if rec.Truncations > 0 {
			fmt.Printf(", truncated %d corrupt tail(s)", rec.Truncations)
		}
		fmt.Println()
		a.Recovered = nil // release the segment image the records view
	}
	fmt.Printf("btcnode listening on %s (mode=%s, rules=%s)\n", a.Addr, trackerMode, version)

	if *connect != "" {
		for _, addr := range strings.Split(*connect, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if err := n.Connect(addr); err != nil {
				fmt.Fprintf(os.Stderr, "connect %s: %v\n", addr, err)
				continue
			}
			fmt.Printf("connected outbound to %s\n", addr)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var ticker *time.Ticker
	var tick <-chan time.Time
	if *statsEvery > 0 {
		ticker = time.NewTicker(*statsEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-sig:
			fmt.Println("\nshutting down")
			n.Stop()
			if a.Store != nil {
				// Parting snapshot: the next boot restores without
				// replaying this run's WAL tail. The assembly's Close
				// (deferred) flushes and fsyncs whatever is still pending.
				if err := n.WriteSnapshot(); err != nil {
					fmt.Fprintln(os.Stderr, "banstore snapshot:", err)
				}
			}
			return nil
		case <-tick:
			s := n.Stats()
			fmt.Printf("peers=%d/%d msgs=%d blocks=%d txs=%d banned-refused=%d reconnects=%d banned-ids=%d\n",
				s.InboundPeers, s.OutboundPeers, s.MessagesProcessed, s.BlocksAccepted,
				s.TxAccepted, s.BannedConnsRefused, s.Reconnections,
				n.Tracker().BanList().Count())
		}
	}
}

func parseMode(s string) (core.Mode, error) {
	switch s {
	case "standard":
		return core.ModeStandard, nil
	case "infinity":
		return core.ModeThresholdInfinity, nil
	case "disabled":
		return core.ModeDisabled, nil
	case "goodscore":
		return core.ModeGoodScore, nil
	}
	return 0, fmt.Errorf("unknown mode %q", s)
}

func parseVersion(s string) (core.CoreVersion, error) {
	switch s {
	case "0.20.0":
		return core.V0_20_0, nil
	case "0.21.0":
		return core.V0_21_0, nil
	case "0.22.0":
		return core.V0_22_0, nil
	}
	return 0, fmt.Errorf("unknown core version %q", s)
}
