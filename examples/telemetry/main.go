// Telemetry: run a simnet victim with the observability stack that
// node.Assemble wires around it, put it under a light BM-DoS flood plus a
// wave of misbehaving Sybils, and watch the per-rule misbehavior counters
// and ban total climb through the HTTP exposition endpoint — the live view
// of Table I. The run also threads
// the message-lifecycle tracer and the ban-forensics ledger through the
// node, then pulls the attacker's complete rule-by-rule ban history from
// /debug/bans/<peer> and a Chrome trace-event timeline (chrome://tracing,
// Perfetto) from /debug/trace/export.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"banscore"
	"banscore/internal/node"
	"banscore/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	sim := banscore.NewSimulation()
	defer sim.Close()

	// One assembly wires the victim's whole observability stack: registry,
	// journal, health probe, and — tracing every message (SampleN 1; this is
	// a demo, not a hot path) — the lifecycle tracer plus the ban-forensics
	// ledger, each with its /debug handler mounted on one server.
	const victimAddr = "10.0.0.1:8333"
	victim, err := node.Assemble(node.Options{
		Fabric:  sim.Fabric(),
		Listen:  victimAddr,
		Observe: true,
		Trace:   &trace.Config{SampleN: 1},
	})
	if err != nil {
		return err
	}
	defer victim.Close()

	addr, err := victim.Server.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	base := "http://" + addr.String()
	fmt.Printf("telemetry at %s/metrics (also /healthz, /events)\n\n", base)

	attacker := sim.NewAttacker("10.0.0.66", victimAddr)

	// A light BM-DoS PING flood: no Table I rule covers PING, so the
	// message counters climb while the rule counters stay flat.
	if _, err := attacker.FloodPings(2000); err != nil {
		return err
	}

	// Three waves of misbehaving Sybils: each connection sends oversize
	// ADDR messages (+20 per Table I) until the 100-point threshold bans
	// it, and the scrape between waves shows the counters climbing.
	var lastSybil string
	for wave := 1; wave <= 3; wave++ {
		s, err := attacker.OpenSession()
		if err != nil {
			return err
		}
		lastSybil = s.LocalAddr()
		for i := 0; i < 5; i++ {
			if err := s.Send(attacker.Forge().OversizeAddr()); err != nil {
				return err
			}
		}
		s.Close()
		waitFor(func() bool { return victim.Node.Tracker().BanList().Count() >= wave })

		fmt.Printf("after wave %d:\n", wave)
		if err := printMatching(base+"/metrics", "core_rule_hits_total", "core_bans_total",
			"node_messages_received_total{command=\"ping\"}"); err != nil {
			return err
		}
		fmt.Println()
	}

	// The journal holds the typed timeline behind those counters.
	fmt.Println("event journal tail:")
	events, err := httpGet(base + "/events?n=6")
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(events))

	// The forensic ledger answers "why is this peer banned": the exact
	// rule/delta/score chain, surviving the score reset the ban caused.
	fmt.Println("\nban forensics (/debug/bans/<peer>):")
	bansBody, err := httpGet(base + "/debug/bans/" + lastSybil)
	if err != nil {
		return err
	}
	var bans struct {
		Peer    string `json:"peer"`
		Records []struct {
			Rule    string `json:"rule"`
			Delta   int    `json:"delta"`
			Score   int    `json:"score"`
			Banned  bool   `json:"banned"`
			Command string `json:"command"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(bansBody), &bans); err != nil {
		return err
	}
	for _, r := range bans.Records {
		fmt.Printf("  %s: rule=%s delta=%+d score=%d banned=%v\n", bans.Peer, r.Rule, r.Delta, r.Score, r.Banned)
	}

	// And the tracer's ring exports the sampled wire-to-ban timeline as
	// Chrome trace-event JSON — load it in chrome://tracing or Perfetto.
	export, err := httpGet(base + "/debug/trace/export")
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(export), &doc); err != nil {
		return err
	}
	fmt.Printf("\ntrace export: %d Chrome trace events from /debug/trace/export\n", len(doc.TraceEvents))
	return nil
}

// printMatching scrapes url and prints the exposition lines starting with
// any of the given prefixes.
func printMatching(url string, prefixes ...string) error {
	body, err := httpGet(url)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(body, "\n") {
		for _, p := range prefixes {
			if strings.HasPrefix(line, p) {
				fmt.Println("  " + line)
			}
		}
	}
	return nil
}

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

func waitFor(cond func() bool) {
	for deadline := time.Now().Add(5 * time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
}
