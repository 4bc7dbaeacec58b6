package experiments

import (
	"fmt"
	"strings"
	"time"

	"banscore/internal/attack"
	"banscore/internal/node"
	"banscore/internal/stats"
	"banscore/internal/wire"
)

// Figure8Row summarizes the serial Sybil Defamation loop at one delay.
type Figure8Row struct {
	Delay            time.Duration
	Identifiers      int
	MessagesToBan    stats.Summary
	TimeToBan        stats.Summary // seconds
	ConnectLatency   stats.Summary // seconds
	FullIPDefamation time.Duration // projected time to ban all 16384 ports
}

// Figure8Result reproduces Fig. 8 and the §VI-D analysis: Defamation using
// duplicate VERSION messages (+1 each, ban at 100), run as a serial Sybil
// loop, with the full-IP preemptive Defamation projection.
type Figure8Result struct {
	Rows  []Figure8Row
	Scale Scale
}

// Figure8 runs the serial Defamation loop at the paper's two delays.
func Figure8(scale Scale) (Figure8Result, error) {
	res := Figure8Result{Scale: scale}
	for _, delay := range []time.Duration{0, time.Millisecond} {
		tb, err := scale.testbed(node.Config{})
		if err != nil {
			return res, err
		}
		mgr := attack.NewSybilManager("10.0.0.66", tb.Target, wire.SimNet, tb.AttackerDialer())
		results, err := mgr.RunSerial(scale.SerialIdentifiers, versionFactory(), delay)
		tb.Close()
		if err != nil {
			return res, err
		}

		var msgs, bans, conns []float64
		for _, r := range results {
			msgs = append(msgs, float64(r.MessagesSent))
			bans = append(bans, r.TimeToBan.Seconds())
			conns = append(conns, r.ConnectLatency.Seconds())
		}
		row := Figure8Row{
			Delay:          delay,
			Identifiers:    len(results),
			MessagesToBan:  stats.Summarize(msgs),
			TimeToBan:      stats.Summarize(bans),
			ConnectLatency: stats.Summarize(conns),
		}
		row.FullIPDefamation = attack.FullIPDefamationEstimate(
			time.Duration(row.TimeToBan.Mean*float64(time.Second)),
			time.Duration(row.ConnectLatency.Mean*float64(time.Second)),
		)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// versionFactory produces the duplicate-VERSION attack message stream.
func versionFactory() func() wire.Message {
	me := wire.NewNetAddressIPPort(nil, 0, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(nil, 0, 0)
	return func() wire.Message {
		return wire.NewMsgVersion(me, you, 1, 0)
	}
}

// PaperFullIPEstimate is the §VI-D headline number computed from the
// paper's own measurements: 16384 · (0.1 s + 0.2 s) ≈ 81.92 minutes.
func PaperFullIPEstimate() time.Duration {
	return attack.FullIPDefamationEstimate(100*time.Millisecond, 200*time.Millisecond)
}

// Render prints the Fig. 8 measurements.
func (r Figure8Result) Render() string {
	var sb strings.Builder
	sb.WriteString("FIGURE 8 — DEFAMATION VIA DUPLICATE VERSION (serial Sybil loop)\n")
	fmt.Fprintf(&sb, "%-10s | %6s | %14s | %16s | %18s | %s\n",
		"Delay", "IDs", "Msgs to ban", "Time to ban (s)", "Connect lat. (s)", "Full-IP projection")
	sb.WriteString(strings.Repeat("-", 100) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s | %6d | %14.1f | %16.4f | %18.4f | %.2f min\n",
			row.Delay, row.Identifiers, row.MessagesToBan.Mean,
			row.TimeToBan.Mean, row.ConnectLatency.Mean,
			row.FullIPDefamation.Minutes())
	}
	fmt.Fprintf(&sb, "\nPaper's own projection at its measured 0.1 s ban + 0.2 s reconnect: %.2f min\n",
		PaperFullIPEstimate().Minutes())
	return sb.String()
}
