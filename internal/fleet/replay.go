package fleet

import (
	"fmt"
	"strings"
	"time"

	"banscore/internal/attack"
	"banscore/internal/observer"
	"banscore/internal/stats"
	"banscore/internal/wire"
)

// Replay defaults.
const (
	DefaultHandshakeTimeout = 5 * time.Second
	DefaultMaxMessages      = 20000
	DefaultBanWait          = 30 * time.Second
)

// IdentityOutcome is one attacker identity's run against the whole fleet.
type IdentityOutcome struct {
	// Identity is the shared [IP:port] every node attributed the attack to.
	Identity string `json:"identity"`
	// Flood holds the per-node send counts and timings.
	Flood []attack.FleetFloodResult `json:"flood"`
}

// ReplayResult is one fleet-wide attack replay: the attacker-side outcomes
// and the observer-side ban-propagation rows for those identities.
type ReplayResult struct {
	// Attack names the replayed scenario: "defamation" or "sybil".
	Attack string `json:"attack"`
	// Identities in attack order.
	Identities []IdentityOutcome `json:"identities"`
	// Propagation has one row per identity: which nodes banned it, the
	// first and last ban, and the first→last spread in seconds.
	Propagation []observer.Propagation `json:"propagation"`
}

// ReplayDefamation replays Fig. 6's Defamation against every node at once:
// one identity, connected to the whole fleet from a single local port,
// floods duplicate VERSION messages (+1 each, ban at 100) until each node
// independently bans the same identifier. The observer's journal feeds then
// yield the cross-node propagation spread for that identity.
func (c *Cluster) ReplayDefamation(delay time.Duration) (ReplayResult, error) {
	return c.replay("defamation", 1, delay)
}

// ReplaySybil replays Fig. 8's serial Sybil loop fleet-wide: identities
// fresh local ports in sequence, each flooding the whole fleet until banned
// everywhere — the workload whose per-identity spread distribution the
// propagation table summarizes.
func (c *Cluster) ReplaySybil(identities int, delay time.Duration) (ReplayResult, error) {
	return c.replay("sybil", identities, delay)
}

// replay runs n identities serially and waits for the observer to see every
// ban on every node.
func (c *Cluster) replay(name string, n int, delay time.Duration) (ReplayResult, error) {
	res := ReplayResult{Attack: name}
	targets := c.Targets()
	flood := attack.VersionFlood()
	for i := 0; i < n; i++ {
		fi, err := attack.DialFleet("127.0.0.1", targets, wire.SimNet, DefaultHandshakeTimeout)
		if err != nil {
			return res, fmt.Errorf("%s identity %d: %w", name, i+1, err)
		}
		results := fi.FloodAll(targets, flood, delay, DefaultMaxMessages)
		res.Identities = append(res.Identities, IdentityOutcome{
			Identity: fi.Local,
			Flood:    results,
		})
	}

	prop, err := c.waitForBans(res.Identities, DefaultBanWait)
	if err != nil {
		return res, err
	}
	res.Propagation = prop
	return res, nil
}

// waitForBans polls the observer until every identity has a ban sighting on
// every node, then returns those identities' propagation rows in identity
// order.
func (c *Cluster) waitForBans(ids []IdentityOutcome, timeout time.Duration) ([]observer.Propagation, error) {
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id.Identity] = true
	}
	deadline := clk.Now().Add(timeout)
	for {
		_ = c.Obs.PollAll()
		byPeer := make(map[string]observer.Propagation)
		for _, row := range c.Store.Propagation() {
			byPeer[row.Peer] = row
		}
		complete := true
		for peer := range want {
			if byPeer[peer].NodesBanned != len(c.Nodes) {
				complete = false
				break
			}
		}
		if complete {
			out := make([]observer.Propagation, 0, len(ids))
			for _, id := range ids {
				out = append(out, byPeer[id.Identity])
			}
			return out, nil
		}
		if clk.Now().After(deadline) {
			missing := make([]string, 0, len(want))
			for peer := range want {
				if byPeer[peer].NodesBanned != len(c.Nodes) {
					missing = append(missing, fmt.Sprintf("%s (%d/%d nodes)",
						peer, byPeer[peer].NodesBanned, len(c.Nodes)))
				}
			}
			return nil, fmt.Errorf("fleet: bans never propagated for %s", strings.Join(missing, ", "))
		}
		clk.Sleep(50 * time.Millisecond)
	}
}

// ExperimentConfig sizes the fleet propagation experiment.
type ExperimentConfig struct {
	// Cluster configures the fleet itself.
	Cluster Config
	// SybilIdentities is the serial Sybil identity count (default 2).
	SybilIdentities int
	// Delay is the inter-message flood delay (Fig. 8: 0 vs 1 ms).
	Delay time.Duration
}

// ExperimentResult is the full fleet experiment: both replays against one
// fleet, plus the per-node event totals the observer aggregated.
type ExperimentResult struct {
	Nodes      int                    `json:"nodes"`
	NodeIDs    []string               `json:"node_ids"`
	Defamation ReplayResult           `json:"defamation"`
	Sybil      ReplayResult           `json:"sybil"`
	Summaries  []observer.NodeSummary `json:"node_summaries"`
	// Elapsed is the time both replays took, on the package clock.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// RunExperiment launches a fleet, replays Defamation and the Sybil loop
// against it, and returns the cross-node ban-propagation measurements. The
// fleet is torn down before returning.
func RunExperiment(cfg ExperimentConfig) (ExperimentResult, error) {
	if cfg.SybilIdentities <= 0 {
		cfg.SybilIdentities = 2
	}
	c, err := Launch(cfg.Cluster)
	if err != nil {
		return ExperimentResult{}, err
	}
	defer c.Close()
	return c.ReplayAll(cfg.SybilIdentities, cfg.Delay)
}

// ReplayAll replays Defamation and then sybils serial Sybil identities (none
// when sybils is 0) against the launched fleet, and collects the observer's
// per-node totals.
func (c *Cluster) ReplayAll(sybils int, delay time.Duration) (ExperimentResult, error) {
	start := clk.Now()
	res := ExperimentResult{Nodes: len(c.Nodes), NodeIDs: c.NodeIDs()}
	var err error
	if res.Defamation, err = c.ReplayDefamation(delay); err != nil {
		return res, fmt.Errorf("defamation replay: %w", err)
	}
	if sybils > 0 {
		if res.Sybil, err = c.ReplaySybil(sybils, delay); err != nil {
			return res, fmt.Errorf("sybil replay: %w", err)
		}
	}
	res.Summaries = c.Store.Nodes()
	res.Elapsed = clk.Since(start)
	return res, nil
}

// Render prints the fleet propagation tables in the experiment suite's
// style.
func (r ExperimentResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FLEET — CROSS-NODE BAN PROPAGATION (%d real btcnode processes over TCP)\n", r.Nodes)
	sb.WriteString(renderReplay(r.Defamation))
	sb.WriteString(renderReplay(r.Sybil))
	return sb.String()
}

func renderReplay(rep ReplayResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\n%s replay — identities: %d\n", strings.ToUpper(rep.Attack), len(rep.Identities))
	fmt.Fprintf(&sb, "%-22s | %5s | %-10s | %-10s | %12s | %14s\n",
		"Identity", "Nodes", "First node", "Last node", "Spread (ms)", "Msgs (mean)")
	sb.WriteString(strings.Repeat("-", 88) + "\n")
	spreads := make([]float64, 0, len(rep.Propagation))
	for i, row := range rep.Propagation {
		var msgs float64
		if i < len(rep.Identities) && len(rep.Identities[i].Flood) > 0 {
			for _, f := range rep.Identities[i].Flood {
				msgs += float64(f.MessagesSent)
			}
			msgs /= float64(len(rep.Identities[i].Flood))
		}
		fmt.Fprintf(&sb, "%-22s | %5d | %-10s | %-10s | %12.2f | %14.1f\n",
			row.Peer, row.NodesBanned, row.FirstNode, row.LastNode, row.Spread*1000, msgs)
		spreads = append(spreads, row.Spread*1000)
	}
	if len(spreads) > 1 {
		s := stats.Summarize(spreads)
		fmt.Fprintf(&sb, "spread ms: mean=%.2f sd=%.2f min=%.2f max=%.2f (n=%d)\n",
			s.Mean, s.StdDev, s.Min, s.Max, s.N)
	}
	return sb.String()
}
