// Detection: train the paper's §VII anomaly-detection engine on synthetic
// Mainnet traffic, then detect both a BM-DoS flood and a Defamation attack
// from the three features (c, n, Λ) — without any node change. A final
// section attaches the same Monitor to a live simnet node, composed with a
// second observer via node.MultiTap.
package main

import (
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"banscore"
	"banscore/internal/detect"
	"banscore/internal/traffic"
	"banscore/internal/wire"
)

// countingTap is a second message-path observer riding alongside the
// detection Monitor — the kind of composition node.MultiTap exists for.
type countingTap struct{ messages, reconnects atomic.Uint64 }

func (c *countingTap) OnMessage(string, time.Time) { c.messages.Add(1) }
func (c *countingTap) OnOutboundReconnect(time.Time) {
	c.reconnects.Add(1)
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	t0 := time.Unix(1700000000, 0)
	detector := banscore.NewDetector(detect.DefaultWindow)

	// Train on 35 hours of normal traffic, like the paper.
	normal := detect.WindowsFromEvents(
		traffic.NewGenerator(42).Events(t0, 35*time.Hour), nil, detect.DefaultWindow)
	thresholds, err := detector.TrainOn(normal)
	if err != nil {
		return err
	}
	fmt.Printf("trained thresholds: %s\n", thresholds)
	fmt.Println("paper's thresholds: τ_c=[0, 2.1] rec/min, τ_n=[252, 390] msg/min, τ_Λ=0.993")

	report := func(name string, windows []detect.WindowStats) error {
		verdicts, err := detector.DetectWindows(windows)
		if err != nil {
			return err
		}
		flagged := 0
		var rho, c, n float64
		for _, v := range verdicts {
			if v.Anomalous {
				flagged++
			}
			rho += v.Rho
			c += v.C
			n += v.N
		}
		count := float64(len(verdicts))
		fmt.Printf("%-18s windows=%d flagged=%d  ρ=%.3f  c=%.1f/min  n=%.0f/min\n",
			name, len(verdicts), flagged, rho/count, c/count, n/count)
		return nil
	}

	// Case 1: fresh normal traffic — nothing should be flagged.
	fresh := detect.WindowsFromEvents(
		traffic.NewGenerator(7).Events(t0.Add(500*time.Hour), 2*time.Hour), nil, detect.DefaultWindow)
	if err := report("normal", fresh); err != nil {
		return err
	}

	// Case 2: the paper's BM-DoS case — a 15,000 msg/min PING flood
	// mixed into normal traffic. Expect every window flagged with a
	// collapsed distribution correlation (paper: ρ = 0.05).
	dosStart := t0.Add(1000 * time.Hour)
	dos := detect.WindowsFromEvents(traffic.Overlay(
		traffic.NewGenerator(9).Events(dosStart, 2*time.Hour),
		traffic.FloodEvents(wire.CmdPing, dosStart, 2*time.Hour, 15000),
	), nil, detect.DefaultWindow)
	if err := report("under-BM-DoS", dos); err != nil {
		return err
	}

	// Case 3: the paper's Defamation case — outbound peers keep getting
	// banned, so the node reconnects at c = 5.3/min (paper's measured
	// rate). Expect the reconnection-rate feature to flag it while the
	// distribution stays near-normal (paper: ρ = 0.88).
	defStart := t0.Add(2000 * time.Hour)
	defEvents, reconnects := traffic.DefamationEvents(defStart, 2*time.Hour, 5.3)
	defamation := detect.WindowsFromEvents(
		traffic.Overlay(traffic.NewGenerator(11).Events(defStart, 2*time.Hour), defEvents),
		reconnects, detect.DefaultWindow)
	if err := report("under-Defamation", defamation); err != nil {
		return err
	}

	return liveMonitor()
}

// liveMonitor attaches a detection Monitor to a running node's message
// path alongside a plain counting tap. WithDetector and WithTap both
// compose through node.MultiTap, so the two observers see the same stream
// with no wrapper types.
func liveMonitor() error {
	sim := banscore.NewSimulation()
	defer sim.Close()

	live := banscore.NewDetector(time.Second)
	counter := &countingTap{}
	victim, err := sim.StartNode("10.0.0.1:8333",
		banscore.WithDetector(live),
		banscore.WithTap(counter),
	)
	if err != nil {
		return err
	}
	defer victim.Stop()

	attacker := sim.NewAttacker("10.0.0.66", victim.Addr())
	if _, err := attacker.FloodPings(500); err != nil {
		return err
	}
	// FloodPings returns once the victim has answered the last PING, so both
	// taps have seen all 500 by now.

	windows := live.Monitor().Flush()
	var monitored int
	for _, w := range windows {
		monitored += w.Messages
	}
	fmt.Printf("\nlive node, two taps via MultiTap: counter saw %d messages, monitor saw %d across %d windows\n",
		counter.messages.Load(), monitored, len(windows))
	return nil
}
