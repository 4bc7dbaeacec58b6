package experiments

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"banscore/internal/attack"
	"banscore/internal/banstore"
	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/reputation"
)

// RestartRow measures one attack × persistence configuration across a
// victim restart. The first life runs the attack to its ban; the victim is
// then killed and rebuilt (with the crash-safe store, state is recovered;
// without it, the tracker and engine start empty) and the row records what
// the restart cost the defender.
type RestartRow struct {
	// Attack: "defamation" (per-identifier ban via duplicate VERSION) or
	// "sybil" (collective netgroup ban via oversize ADDR from one /16).
	Attack string `json:"attack"`

	// Persistence: "none" (stock in-memory state, the pre-banstore node)
	// or "banstore" (WAL + snapshot store, killed and recovered).
	Persistence string `json:"persistence"`

	// First life: messages and seconds from attack start to the ban.
	MsgsToBan int     `json:"msgs_to_ban"`
	TimeToBan float64 `json:"time_to_ban_s"`

	// BannedAfterRestart reports whether the ban was still in force the
	// moment the victim came back; ReconnectRefused whether the banned
	// party's immediate reconnection attempt was refused.
	BannedAfterRestart bool `json:"banned_after_restart"`
	ReconnectRefused   bool `json:"reconnect_refused"`

	// Re-ban cost: messages and seconds the attacker had to absorb again
	// before the second life re-established the ban. Zero when the ban
	// survived the restart — the durable defender pays nothing.
	MsgsToReban int     `json:"msgs_to_reban"`
	TimeToReban float64 `json:"time_to_reban_s"`
}

// RestartComparisonResult is the durability experiment: the same two
// identifier-layer attacks, run against a victim that restarts mid-defense,
// with and without crash-safe ban-state persistence. Without it every ban
// — individual or collective — resets to zero and must be re-earned at
// full price; with it the restart is free.
type RestartComparisonResult struct {
	Rows  []RestartRow `json:"rows"`
	Scale Scale        `json:"-"`
}

// restartDefamerAddr / restartSwarmPrefix keep this experiment's address
// space disjoint from the other suites'.
const (
	restartDefamerAddr  = "10.4.0.9:50001"
	restartSwarmPrefix  = "10.88"
	restartSwarmBudget  = 150
	restartSwarmPeerCap = 40
)

// RestartComparison runs the restart matrix. dir hosts the banstore
// variants' store directories (one subdirectory per attack).
func RestartComparison(scale Scale, dir string) (RestartComparisonResult, error) {
	res := RestartComparisonResult{Scale: scale}
	for _, attackName := range []string{"defamation", "sybil"} {
		for _, persistence := range []string{"none", "banstore"} {
			row, err := restartRow(attackName, persistence, filepath.Join(dir, attackName))
			if err != nil {
				return res, fmt.Errorf("%s/%s: %w", attackName, persistence, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// restartRow drives one cell of the matrix: first life to the ban, a kill,
// a second life, and the re-ban measurement.
func restartRow(attackName, persistence, dir string) (RestartRow, error) {
	row := RestartRow{Attack: attackName, Persistence: persistence}
	durable := persistence == "banstore"

	// boot assembles one victim lifetime. With persistence the store is
	// opened first (recovering the previous life), the engine is born
	// recording into it, and the testbed restores before serving.
	boot := func() (*Testbed, error) {
		opts := node.Options{Config: node.Config{SnapshotEvery: -1}}
		if durable {
			opts.Store = &banstore.Options{Dir: dir}
		}
		if attackName == "sybil" {
			opts.Engine = &reputation.Config{
				HalfLife:            1000 * time.Hour,
				GroupBudget:         restartSwarmBudget,
				PeerContributionCap: restartSwarmPeerCap,
			}
			opts.TrackerConfig = core.Config{Mode: core.ModeThresholdInfinity}
		}
		return NewTestbed(opts)
	}

	drive := func(tb *Testbed) (int, float64, error) {
		if attackName == "sybil" {
			return driveSybilToGroupBan(tb, tb.Victim.Reputation())
		}
		return driveDefamationToBan(tb)
	}

	// First life: attack to the ban.
	tb, err := boot()
	if err != nil {
		return row, err
	}
	row.MsgsToBan, row.TimeToBan, err = drive(tb)
	if err != nil {
		tb.Close()
		return row, err
	}

	// Kill the victim. The store flushes its window first (the chaos suite
	// separately proves what an unflushed window costs) and then dies the
	// unclean way — no snapshot, no graceful close; recovery replays the
	// WAL tail.
	if tb.Store != nil {
		if err := tb.Store.Sync(); err != nil {
			tb.Close()
			return row, err
		}
		tb.Store.Crash()
	}
	tb.Close()

	// Second life.
	tb2, err := boot()
	if err != nil {
		return row, err
	}
	defer tb2.Close()

	if attackName == "sybil" {
		group := reputation.NetgroupKey(core.PeerIDFromAddr(restartSwarmAddr(0)))
		_, status := tb2.Victim.Reputation().GroupPressure(group)
		row.BannedAfterRestart = status == reputation.GroupBanned
		row.ReconnectRefused = sessionRefused(tb2, restartSwarmPrefix+".250.250:6000")
	} else {
		row.BannedAfterRestart = tb2.Victim.Tracker().IsBanned(core.PeerIDFromAddr(restartDefamerAddr))
		row.ReconnectRefused = sessionRefused(tb2, restartDefamerAddr)
	}
	if !row.BannedAfterRestart {
		row.MsgsToReban, row.TimeToReban, err = drive(tb2)
		if err != nil {
			return row, err
		}
	}
	return row, nil
}

// driveDefamationToBan frames restartDefamerAddr with duplicate VERSION
// messages until the tracker bans it, returning messages sent and seconds
// from first message to the ban.
func driveDefamationToBan(tb *Testbed) (int, float64, error) {
	id := core.PeerIDFromAddr(restartDefamerAddr)
	tracker := tb.Victim.Tracker()
	factory := versionFactory()
	start := clk.Now()
	sent := 0
	deadline := clk.Now().Add(15 * time.Second)
	for !tracker.IsBanned(id) {
		if clk.Now().After(deadline) {
			return sent, 0, fmt.Errorf("defamer never banned after %d messages", sent)
		}
		s, err := tb.NewAttackSession(restartDefamerAddr)
		if err != nil {
			clk.Sleep(time.Millisecond)
			continue
		}
		for sent < 4*core.DefaultBanThreshold && !tracker.IsBanned(id) {
			burst := 0
			for burst < 10 {
				if err := s.Send(factory()); err != nil {
					break
				}
				burst++
				sent++
			}
			if burst == 0 {
				break
			}
			// Let the victim score the burst before sending more — the
			// attacker can otherwise outrun the read loop and the count
			// would overstate the attack's price.
			wait := clk.Now().Add(time.Second)
			for clk.Now().Before(wait) && !tracker.IsBanned(id) && tracker.Score(id) < sent {
				clk.Sleep(time.Millisecond)
			}
		}
		s.Close()
		clk.Sleep(time.Millisecond)
	}
	return sent, clk.Since(start).Seconds(), nil
}

// driveSybilToGroupBan burns swarm identities from one /16 — each sending
// oversize ADDR messages until its contribution saturates — until the
// engine collectively bans the prefix.
func driveSybilToGroupBan(tb *Testbed, engine *reputation.Engine) (int, float64, error) {
	group := reputation.NetgroupKey(core.PeerIDFromAddr(restartSwarmAddr(0)))
	forge := attack.NewForge(blockchain.SimNetParams())
	banned := func() bool {
		_, status := engine.GroupPressure(group)
		return status == reputation.GroupBanned
	}
	start := clk.Now()
	sent := 0
	for i := 0; !banned(); i++ {
		if i >= 32 {
			return sent, 0, fmt.Errorf("netgroup never banned after %d identities", i)
		}
		addr := restartSwarmAddr(i)
		id := core.PeerIDFromAddr(addr)
		deadline := clk.Now().Add(15 * time.Second)
		for engine.Score(id).Misbehavior < restartSwarmPeerCap-1 && !banned() {
			if clk.Now().After(deadline) {
				return sent, 0, fmt.Errorf("identity %s never saturated", addr)
			}
			s, err := tb.NewAttackSession(addr)
			if err != nil {
				clk.Sleep(time.Millisecond)
				continue
			}
			// Two oversize ADDRs (+20 each) exactly saturate the
			// identity's contribution cap; more would inflate the
			// message count without charging the group further.
			for j := 0; j < 2; j++ {
				if err := s.Send(forge.OversizeAddr()); err != nil {
					break
				}
				sent++
			}
			s.Close()
			clk.Sleep(time.Millisecond)
		}
	}
	return sent, clk.Since(start).Seconds(), nil
}

func restartSwarmAddr(i int) string {
	return fmt.Sprintf("%s.1.%d:4001", restartSwarmPrefix, 10+i)
}

// sessionRefused reports whether a connection from addr fails to complete
// the version handshake — the observable effect of an accept-time refusal,
// whether by identifier ban or netgroup standing.
func sessionRefused(tb *Testbed, addr string) bool {
	_, err := tb.NewAttackSession(addr)
	return err != nil
}

// Render prints the restart comparison.
func (r RestartComparisonResult) Render() string {
	var sb strings.Builder
	sb.WriteString("RESTART — BAN DURABILITY ACROSS VICTIM CRASHES\n")
	fmt.Fprintf(&sb, "%-11s | %-9s | %12s | %12s | %7s | %8s | %12s | %12s\n",
		"Attack", "Persist", "Msgs to ban", "Time (s)", "Banned?", "Refused?", "Msgs re-ban", "Re-ban (s)")
	sb.WriteString(strings.Repeat("-", 104) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-11s | %-9s | %12d | %12.4f | %7v | %8v | %12d | %12.4f\n",
			row.Attack, row.Persistence, row.MsgsToBan, row.TimeToBan,
			row.BannedAfterRestart, row.ReconnectRefused, row.MsgsToReban, row.TimeToReban)
	}
	sb.WriteString("\nWithout persistence a restart resets every ban — individual and collective —\n" +
		"and the attacker re-enters for free; with the WAL + snapshot store the bans\n" +
		"are re-enforced at accept time before the first malicious byte.\n")
	return sb.String()
}
