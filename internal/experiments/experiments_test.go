package experiments

import (
	"strings"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/node"
)

// The experiment tests assert the SHAPES the paper reports — who wins, by
// roughly what factor, where the qualitative crossovers fall — not absolute
// numbers, which depend on the host.

func TestTable1RendersAllRules(t *testing.T) {
	res := Table1()
	if len(res.Rules) != 19 {
		t.Fatalf("rules = %d, want 19", len(res.Rules))
	}
	out := res.Render()
	for _, want := range []string{
		"BLOCK", "Block data was mutated", "Duplicate VERSION",
		"More than 50000 inventory entries", "Outbound peer",
		"12 of the 26",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I render missing %q", want)
		}
	}
	// Deprecations render as "-".
	if !strings.Contains(out, "-") {
		t.Error("no deprecated cells rendered")
	}
}

func TestTable2Shapes(t *testing.T) {
	res, err := Table2(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 18 {
		t.Fatalf("rows = %d, want the 18 measured message types", len(res.Rows))
	}
	if res.Render() == "" {
		t.Error("empty render")
	}

	// The impact-cost ratios below are per-message CPU measurements; the
	// race detector inflates processing and crafting unevenly, so the
	// magnitude and ordering checks run only in uninstrumented builds.
	if raceEnabled {
		t.Skip("impact-cost ratio assertions need uninstrumented timing")
	}

	top := res.TopByRatio()
	if top[0] != "BLOCK" {
		t.Errorf("highest ratio = %s, want BLOCK (paper: 26323)", top[0])
	}
	if top[1] != "BLOCKTXN" {
		t.Errorf("runner-up = %s, want BLOCKTXN (paper: 5849)", top[1])
	}
	if top[2] != "CMPCTBLOCK" {
		t.Errorf("third = %s, want CMPCTBLOCK (paper: 3192)", top[2])
	}

	block, _ := res.Row("BLOCK")
	blockTxn, _ := res.Row("BLOCKTXN")
	if block.Ratio < 2*blockTxn.Ratio {
		t.Errorf("BLOCK ratio %.0f should clearly dominate BLOCKTXN %.0f", block.Ratio, blockTxn.Ratio)
	}

	// Oversize messages cost the attacker more than the victim.
	for _, name := range []string{"ADDR", "INV", "GETDATA", "HEADERS"} {
		row, ok := res.Row(name)
		if !ok {
			t.Fatalf("missing row %s", name)
		}
		if row.Ratio >= 0.5 {
			t.Errorf("%s ratio = %.4f, want << 1 (attacker pays for oversize crafting)", name, row.Ratio)
		}
	}

	// TX processing is meaningfully more expensive than crafting.
	tx, _ := res.Row("TX")
	if tx.Ratio < 1 {
		t.Errorf("TX ratio = %.2f, want > 1 (paper: 11.16)", tx.Ratio)
	}
}

func TestFigure6Shapes(t *testing.T) {
	res, err := Figure6(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline() <= 0 {
		t.Fatal("no baseline mining rate")
	}

	// All comparisons run on each configuration's paired Impact (mining
	// under flood / same run's idle rate), which cancels host-level drift
	// between configurations the way Table III's MiningRatio does.
	impact := func(attack string, sybils int) float64 {
		for _, row := range res.Rows {
			if row.Attack == attack && row.Sybils == sybils {
				return row.Impact()
			}
		}
		t.Fatalf("missing %s/%d", attack, sybils)
		return 0
	}
	// The remaining assertions compare attack-impact magnitudes, which are
	// per-message cost ratios, and the paired-control sanity band, which
	// assumes steady idle throughput. The race detector multiplies
	// per-message processing cost by roughly an order of magnitude and adds
	// scheduling jitter, flattening the BLOCK-vs-PING asymmetry the figure
	// measures, so the shape checks run only in uninstrumented builds (the
	// runner above still exercises the full flood machinery for race
	// coverage).
	if raceEnabled {
		t.Skip("impact-shape assertions need uninstrumented timing")
	}

	control := impact("none", 0)
	if control < 0.85 || control > 1.15 {
		t.Fatalf("no-flood control impact %.2f far from 1.0 — pairing is broken", control)
	}

	// No flood configuration may look better than idle: every row gets the
	// same +15% pairing-noise ceiling the control is held to. (Comparing
	// against the measured control instead would stack the noise of two
	// independent paired runs — under full-suite parallelism the control
	// itself wanders within its band.) PING/1 in particular is rate-bound
	// and barely dents mining (the figure's PING curve starts near the
	// baseline), so it gets no suppression floor, only this ceiling.
	for _, row := range res.Rows {
		if row.Attack == "none" {
			continue
		}
		if got := row.Impact(); got >= 1.15 {
			t.Errorf("%s/%d impact %.2f above the idle noise ceiling 1.15", row.Attack, row.Sybils, got)
		}
	}
	// Heavy configurations visibly suppress mining: a single bogus-BLOCK
	// flooder (the paper's headline per-message cost asymmetry) and every
	// 10- and 20-Sybil flood.
	for _, heavy := range []struct {
		attack string
		sybils int
	}{{"BLOCK", 1}, {"BLOCK", 10}, {"BLOCK", 20}, {"PING", 10}, {"PING", 20}} {
		if got := impact(heavy.attack, heavy.sybils); got >= 0.7 {
			t.Errorf("%s/%d impact %.2f, want < 0.7", heavy.attack, heavy.sybils, got)
		}
	}
	// The paper's headline: bogus-BLOCK flooding hurts more than PING
	// flooding at a single connection.
	if block1, ping1 := impact("BLOCK", 1), impact("PING", 1); block1 >= ping1 {
		t.Errorf("BLOCK/1 impact %.2f should be below PING/1 %.2f", block1, ping1)
	}
	// More Sybil connections increase the impact.
	if block10, block1 := impact("BLOCK", 10), impact("BLOCK", 1); block10 >= block1 {
		t.Errorf("BLOCK/10 impact %.2f should be below BLOCK/1 %.2f", block10, block1)
	}
	if ping10, ping1 := impact("PING", 10), impact("PING", 1); ping10 >= ping1 {
		t.Errorf("PING/10 impact %.2f should be below PING/1 %.2f", ping10, ping1)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestTable3Shapes(t *testing.T) {
	res, err := Table3(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}

	// Bandwidth scales with the flooding rate within each layer.
	icmp3, _ := res.Row("ICMP ping", 1e3)
	icmp6, _ := res.Row("ICMP ping", 1e6)
	if icmp6.BandwidthKb <= icmp3.BandwidthKb*10 {
		t.Errorf("ICMP bandwidth did not scale: %.1f at 10^3 vs %.1f at 10^6",
			icmp3.BandwidthKb, icmp6.BandwidthKb)
	}
	// Only the network layer reaches 10^6/s; the attacker's CPU grows
	// with the rate.
	icmp2, _ := res.Row("ICMP ping", 1e2)
	if icmp6.AttackerCPU <= icmp2.AttackerCPU {
		t.Errorf("ICMP CPU did not grow with rate: %.2f%% vs %.2f%%", icmp2.AttackerCPU, icmp6.AttackerCPU)
	}
	// The application-layer sender allocates more per message than the
	// network-layer one (paper: 14.34 MB vs 2.048 MB).
	btc3, _ := res.Row("Bitcoin PING", 1e3)
	if btc3.AttackerMem <= icmp3.AttackerMem {
		t.Errorf("Bitcoin PING mem %.3f MB should exceed ICMP mem %.3f MB",
			btc3.AttackerMem, icmp3.AttackerMem)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure7Shapes(t *testing.T) {
	res, err := Figure7(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 {
		t.Fatal("no baseline")
	}
	// At the highest matched rate, the application-layer flood (full
	// message pipeline per packet) must hurt the mining rate more than
	// the kernel-path ICMP flood — the paper's §VI-C claim. The paired
	// on/off ratio is used because it cancels host-level noise, but the
	// race detector's instrumentation still swamps the layer asymmetry,
	// so the comparison runs only in uninstrumented builds.
	if raceEnabled {
		t.Skip("matched-rate impact comparison needs uninstrumented timing")
	}
	btc, ok := res.Row("Bitcoin PING", 1e5)
	if !ok {
		t.Fatal("missing Bitcoin PING @ 1e5")
	}
	icmp, ok := res.Row("ICMP ping", 1e5)
	if !ok {
		t.Fatal("missing ICMP @ 1e5")
	}
	if btc.MiningRatio >= icmp.MiningRatio {
		t.Errorf("matched-rate impact: Bitcoin PING ratio %.2f should be below ICMP ratio %.2f",
			btc.MiningRatio, icmp.MiningRatio)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure8Shapes(t *testing.T) {
	res, err := Figure8(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 delays", len(res.Rows))
	}
	noDelay, withDelay := res.Rows[0], res.Rows[1]
	if noDelay.Delay != 0 || withDelay.Delay != time.Millisecond {
		t.Fatalf("unexpected delays %v / %v", noDelay.Delay, withDelay.Delay)
	}

	// Paper: no delay bans in ~0.1 s, 1 ms delay in ~0.2 s — i.e. the
	// delayed variant takes longer. Both quantities are wall-clock, so
	// the comparison only holds without race-detector inflation.
	if !raceEnabled {
		if noDelay.TimeToBan.Mean >= withDelay.TimeToBan.Mean {
			t.Errorf("time-to-ban: no-delay %.4f s should be below 1ms-delay %.4f s",
				noDelay.TimeToBan.Mean, withDelay.TimeToBan.Mean)
		}
		// With pacing, the ban needs exactly the 100 duplicate VERSIONs the
		// threshold implies (the victim may drain a few extra from the pipe).
		if withDelay.MessagesToBan.Mean < 100 || withDelay.MessagesToBan.Mean > 120 {
			t.Errorf("paced messages-to-ban = %.1f, want ≈ 100", withDelay.MessagesToBan.Mean)
		}
	}
	// The full-IP projection uses all 16384 ephemeral ports.
	if withDelay.FullIPDefamation <= 0 {
		t.Error("no full-IP projection")
	}
	if got := PaperFullIPEstimate().Minutes(); got < 81.9 || got > 82.0 {
		t.Errorf("paper estimate = %.2f min, want 81.92", got)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure10Shapes(t *testing.T) {
	res, err := Figure10(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	// Thresholds should resemble the paper's trained values.
	th := res.Thresholds
	if th.NMin > 320 || th.NMax < 320 || th.NMin < 180 || th.NMax > 480 {
		t.Errorf("τ_n = [%.0f, %.0f], want a band around 320 like the paper's [252, 390]", th.NMin, th.NMax)
	}
	if th.LambdaMin < 0.9 {
		t.Errorf("τ_Λ = %.3f, want high like the paper's 0.993", th.LambdaMin)
	}

	normal, _ := res.Case("normal")
	dos, _ := res.Case("under-BM-DoS")
	defamation, _ := res.Case("under-Defamation")

	// PING dominates the BM-DoS distribution (paper: 94.16%).
	if dos.Distribution["ping"] < 0.9 {
		t.Errorf("BM-DoS ping share = %.3f, want > 0.9", dos.Distribution["ping"])
	}
	// ρ ordering: BM-DoS ≪ Defamation ≤ normal (paper: 0.05 ≪ 0.88).
	if !(dos.Rho < 0.5 && dos.Rho < defamation.Rho && defamation.Rho <= 1) {
		t.Errorf("ρ ordering violated: dos=%.3f defamation=%.3f", dos.Rho, defamation.Rho)
	}
	// Defamation's reconnection rate matches the injected 5.3/min and
	// exceeds τ_c.
	if defamation.C < 4.5 || defamation.C > 6.5 {
		t.Errorf("defamation c = %.2f, want ≈ 5.3", defamation.C)
	}
	if defamation.C <= th.CMax {
		t.Errorf("defamation c %.2f should exceed τ_c max %.2f", defamation.C, th.CMax)
	}
	// BM-DoS rate far above τ_n (paper: ~15,000/min vs 390).
	if dos.N < 5*th.NMax {
		t.Errorf("BM-DoS n = %.0f, want far above τ_n max %.0f", dos.N, th.NMax)
	}
	// All three cases judged correctly → 100% accuracy.
	if !normal.Detected || !dos.Detected || !defamation.Detected {
		t.Errorf("verdicts: normal=%v dos=%v defamation=%v", normal.Detected, dos.Detected, defamation.Detected)
	}
	if res.Accuracy != 1 {
		t.Errorf("accuracy = %.3f, want 1.0", res.Accuracy)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestFigure11Shapes(t *testing.T) {
	res, err := Figure11(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want Ours + 7 baselines", len(res.Rows))
	}
	ours, ok := res.Row("Ours")
	if !ok {
		t.Fatal("missing Ours")
	}
	if ours.Accuracy != 1 {
		t.Errorf("ours accuracy = %.3f, want 1.0", ours.Accuracy)
	}
	// The statistical engine trains faster than every ML baseline, and
	// the heavyweight ones (GB, DNN, AE) by a wide margin.
	for _, row := range res.Rows {
		if row.Approach == "Ours" {
			continue
		}
		if row.Train <= ours.Train {
			t.Errorf("%s trained in %v, not slower than ours (%v)", row.Approach, row.Train, ours.Train)
		}
	}
	for _, heavy := range []string{"GB", "DNN", "AE"} {
		row, _ := res.Row(heavy)
		if row.Train < 20*ours.Train {
			t.Errorf("%s train %v, want >= 20x ours (%v)", heavy, row.Train, ours.Train)
		}
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestCountermeasuresNeutralizeDefamation(t *testing.T) {
	res, err := Countermeasures(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	standard, ok := res.Row(core.ModeStandard)
	if !ok {
		t.Fatal("missing standard row")
	}
	if !standard.InnocentBanned {
		t.Error("standard mode failed to ban — the vulnerability should reproduce")
	}
	for _, mode := range []core.Mode{core.ModeThresholdInfinity, core.ModeDisabled, core.ModeGoodScore} {
		row, ok := res.Row(mode)
		if !ok {
			t.Fatalf("missing row for %v", mode)
		}
		if row.InnocentBanned {
			t.Errorf("%v mode banned the innocent peer", mode)
		}
		if !row.StillConnected {
			t.Errorf("%v mode lost the connection", mode)
		}
	}
	// Threshold-infinity keeps the score for peer-health ranking.
	inf, _ := res.Row(core.ModeThresholdInfinity)
	if inf.FinalBanScore < 300 {
		t.Errorf("threshold-infinity score = %d, want >= 300 (tracking continues)", inf.FinalBanScore)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestVictimPeerTimesOutForUnknownPeer(t *testing.T) {
	tb, err := NewTestbed(node.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// Shorten the experiment by not connecting at all: expect an error.
	done := make(chan error, 1)
	go func() {
		_, err := tb.VictimPeer("10.9.9.9:1")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("VictimPeer succeeded for unknown peer")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("VictimPeer did not time out")
	}
}

func TestCyclesConversion(t *testing.T) {
	if got := Cycles(time.Second); got != ReferenceClockHz {
		t.Errorf("Cycles(1s) = %v", got)
	}
	if got := Cycles(250 * time.Millisecond); got != ReferenceClockHz/4 {
		t.Errorf("Cycles(250ms) = %v", got)
	}
}

func TestAuthOverheadEstimate(t *testing.T) {
	// §VIII: 60,000 nodes × 34 connections / 2 = 1,020,000 links.
	got := PaperAuthOverhead()
	if got.Connections != 1020000 {
		t.Errorf("connections = %d, want 1020000", got.Connections)
	}
	small := EstimateAuthOverhead(10, 4)
	if small.Connections != 20 {
		t.Errorf("small estimate = %d, want 20", small.Connections)
	}
}
