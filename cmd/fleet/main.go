// Command fleet launches a multi-node btcnode fleet on loopback TCP,
// attacks it, and reports how bans propagate across the nodes.
//
// Usage:
//
//	fleet [-nodes 5] [-sybils 3] [-delay 1ms] [-mode standard]
//	      [-dir /tmp/fleet] [-bin ./btcnode] [-poll 50ms]
//	      [-out propagation.json] [-serve 127.0.0.1:9600]
//
// The driver builds cmd/btcnode (unless -bin supplies a binary), starts
// -nodes processes on staggered loopback ports — each with its own
// -banstore-dir, telemetry endpoint, tracing, and forensics — and points a
// fleet observer at every node's /debug/journal, /healthz, /debug/banstore,
// /debug/reputation, and /metrics surfaces. Everything the observer ingests
// lands in a crash-safe store under <dir>/observer.
//
// It then replays the paper's attacks against the whole fleet at once: one
// Defamation identity (Fig. 6) and -sybils serial Sybil identities
// (Fig. 8), every identity presented to all nodes from a single local
// [IP:port] via SO_REUSEPORT so the nodes agree on which identifier
// misbehaved. The ban-propagation table — which nodes banned each identity,
// first and last ban, first→last spread — prints when the replays finish,
// and -out writes the full result as a JSON artifact.
//
// With -serve, the fleet stays up after the replays and the aggregated
// store is queryable over HTTP until SIGINT:
//
//	/fleet/bans          — every ban sighting, joined with forensic evidence
//	/fleet/propagation   — per-identity cross-node spread
//	/fleet/peers/<id>    — one identity's full cross-node event history
//	/fleet/nodes         — per-node ingest totals, health, node_info
//	/fleet/status        — the store's own durability status
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"banscore/internal/fleet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run() error {
	nodes := flag.Int("nodes", 5, "btcnode processes to launch")
	sybils := flag.Int("sybils", 3, "serial Sybil identities to replay (0 skips the Sybil phase)")
	delay := flag.Duration("delay", 0, "inter-message flood delay (Fig. 8 compares 0 vs 1ms)")
	mode := flag.String("mode", "standard", "tracker mode for every node")
	dir := flag.String("dir", "", "fleet working directory (default: a temp dir, removed on exit)")
	bin := flag.String("bin", "", "prebuilt btcnode binary (default: go build ./cmd/btcnode)")
	poll := flag.Duration("poll", fleet.DefaultPollInterval, "observer poll interval")
	out := flag.String("out", "", "write the experiment result as JSON to this file")
	serve := flag.String("serve", "", "after the replays, serve the /fleet query API at this address until SIGINT")
	flag.Parse()

	if *nodes < 2 {
		return fmt.Errorf("-nodes %d: propagation needs at least 2 nodes", *nodes)
	}

	c, err := fleet.Launch(fleet.Config{
		Nodes:        *nodes,
		Mode:         *mode,
		Bin:          *bin,
		Dir:          *dir,
		PollInterval: *poll,
	})
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("fleet up: %d nodes under %s\n", len(c.Nodes), c.Dir())
	for _, n := range c.Nodes {
		fmt.Printf("  %s  p2p %s  telemetry %s\n", n.ID, n.Addr, n.TelemetryURL)
	}

	res, err := c.ReplayAll(*sybils, *delay)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\nreplays finished in %s\n", res.Render(), res.Elapsed.Round(time.Millisecond))

	if *out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return fmt.Errorf("out: %w", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("out: %w", err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if *serve != "" {
		srv := &http.Server{Addr: *serve, Handler: c.Store.QueryHandler()}
		go func() { //lint:allow gospawn(the query server outlives this function by design: main blocks on SIGINT below, then srv.Close unblocks ListenAndServe before the process exits)
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "fleet: serve:", err)
			}
		}()
		fmt.Printf("fleet query API at http://%s/fleet/propagation (SIGINT to stop)\n", *serve)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		fmt.Println("\nshutting down")
		_ = srv.Close()
	}
	return nil
}
