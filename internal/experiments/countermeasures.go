package experiments

import (
	"fmt"
	"strings"
	"time"

	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/wire"
)

// CountermeasureRow records how one tracker mode fares under the
// duplicate-VERSION Defamation primitive.
type CountermeasureRow struct {
	Mode           core.Mode
	MessagesSent   int
	InnocentBanned bool
	Disconnected   bool
	FinalBanScore  int
	FinalGoodScore int
	StillConnected bool
}

// CountermeasuresResult validates §VIII: forgoing the ban score (threshold
// to ∞ or fully disabled) and the good-score mechanism all neutralize
// Defamation, while standard mode bans the innocent identifier.
type CountermeasuresResult struct {
	Rows []CountermeasureRow
}

// Countermeasures runs the Defamation primitive against each tracker mode.
func Countermeasures(scale Scale) (CountermeasuresResult, error) {
	res := CountermeasuresResult{}
	const messages = 300 // 3x the standard threshold
	for _, mode := range []core.Mode{
		core.ModeStandard, core.ModeThresholdInfinity, core.ModeDisabled, core.ModeGoodScore,
	} {
		tb, err := scale.testbed(node.Config{TrackerConfig: core.Config{Mode: mode}})
		if err != nil {
			return res, err
		}
		const innocent = "10.0.0.77:50001"
		row := CountermeasureRow{Mode: mode}

		s, err := tb.NewAttackSession(innocent)
		if err != nil {
			tb.Close()
			return res, err
		}
		factory := versionFactory()
		for i := 0; i < messages; i++ {
			if err := s.Send(factory()); err != nil {
				row.Disconnected = true
				break
			}
			row.MessagesSent++
		}
		// Give the victim time to drain and score what was sent.
		deadline := clk.Now().Add(2 * time.Second)
		id := core.PeerIDFromAddr(innocent)
		for clk.Now().Before(deadline) {
			if tb.Victim.Tracker().IsBanned(id) {
				break
			}
			if mode != core.ModeStandard && tb.Victim.Stats().MessagesProcessed >= uint64(row.MessagesSent) {
				break
			}
			clk.Sleep(2 * time.Millisecond)
		}

		row.InnocentBanned = tb.Victim.Tracker().IsBanned(id)
		row.FinalBanScore = tb.Victim.Tracker().Score(id)
		row.FinalGoodScore = tb.Victim.Tracker().GoodScore(id)
		if !row.Disconnected {
			// Prove liveness with a ping round trip.
			if err := s.Send(wire.NewMsgPing(1)); err == nil {
				if _, err := s.Recv(2 * time.Second); err == nil {
					row.StillConnected = true
				}
			}
		}
		s.Close()
		tb.Close()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AuthOverhead is the §VIII estimate of what encrypting/authenticating
// every P2P connection would cost the network.
type AuthOverhead struct {
	Nodes        int
	ConnsPerNode int
	// Connections is the number of distinct links to protect.
	Connections int
}

// EstimateAuthOverhead reproduces the paper's arithmetic: with over 60,000
// nodes each maintaining 34 connections, 60000·34/2 = 1,020,000 links would
// need encryption — the overhead argument against the authentication
// countermeasure.
func EstimateAuthOverhead(nodes, connsPerNode int) AuthOverhead {
	return AuthOverhead{
		Nodes:        nodes,
		ConnsPerNode: connsPerNode,
		Connections:  nodes * connsPerNode / 2,
	}
}

// PaperAuthOverhead is the §VIII headline figure.
func PaperAuthOverhead() AuthOverhead { return EstimateAuthOverhead(60000, 34) }

// Row returns the record for the given mode.
func (r CountermeasuresResult) Row(mode core.Mode) (CountermeasureRow, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode {
			return row, true
		}
	}
	return CountermeasureRow{}, false
}

// Render prints the countermeasure validation.
func (r CountermeasuresResult) Render() string {
	var sb strings.Builder
	sb.WriteString("§VIII COUNTERMEASURES — DEFAMATION PRIMITIVE vs TRACKER MODE\n")
	fmt.Fprintf(&sb, "%-20s | %8s | %8s | %12s | %10s | %s\n",
		"Mode", "Sent", "Banned", "Ban score", "Connected", "Note")
	sb.WriteString(strings.Repeat("-", 90) + "\n")
	for _, row := range r.Rows {
		note := ""
		switch row.Mode {
		case core.ModeStandard:
			note = "ban at 100 as designed — the vulnerability"
		case core.ModeThresholdInfinity:
			note = "score keeps counting, never bans"
		case core.ModeDisabled:
			note = "no tracking at all"
		case core.ModeGoodScore:
			note = "reputation replaces banning"
		}
		fmt.Fprintf(&sb, "%-20s | %8d | %8v | %12d | %10v | %s\n",
			row.Mode, row.MessagesSent, row.InnocentBanned, row.FinalBanScore,
			row.StillConnected, note)
	}
	auth := PaperAuthOverhead()
	fmt.Fprintf(&sb, "\nAuthentication countermeasure overhead (§VIII): %d nodes × %d conns / 2 = %d links to encrypt\n",
		auth.Nodes, auth.ConnsPerNode, auth.Connections)
	return sb.String()
}
