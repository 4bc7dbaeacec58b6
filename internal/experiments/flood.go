package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"banscore/internal/attack"
	"banscore/internal/blockchain"
	"banscore/internal/miner"
	"banscore/internal/node"
	"banscore/internal/stats"
	"banscore/internal/wire"
)

// bogusBlockTxCount sizes the bogus BLOCK payload of the flooding
// experiments; the victim's transport layer double-SHA256s the entire
// payload before discarding it.
const bogusBlockTxCount = 2000

// The Fig. 6 Sybil senders are paced burst-then-pause: dump a burst of
// messages, sleep sybilFloodPacing. In the paper's testbed per-connection
// throughput is bounded by the sender's network path, so total flood load
// scales with the Sybil connection count (Fig. 6's x-axis). On the
// in-process fabric an unpaced single flooder can saturate the victim's
// CPU by itself — which flattens that scaling and reduces every
// configuration to a scheduler-fairness measurement. Pacing restores the
// regime the figure is about: a single connection's impact is set by the
// victim-side per-message cost (double-SHA256 of a ~124 KB bogus BLOCK vs
// a ~100 B PING — so BLOCK/1 suppresses mining hard while PING/1 barely
// dents it, exactly the gap between the figure's two single-connection
// curves), and stacking connections drives the victim to saturation the
// way added Sybils do in the paper. The burst sizes reflect each sender's
// cost: a PING flooder pushes many more messages through the same socket
// budget than a BLOCK flooder moving ~1240x the bytes per message.
const (
	blockFloodBurst  = 32
	pingFloodBurst   = 256
	sybilFloodPacing = 500 * time.Microsecond
)

// Figure6Row is one flood configuration's measured mining rate.
type Figure6Row struct {
	Attack string // "none", "BLOCK", "PING"
	Sybils int
	// Idle is the same run's mining rate measured just before the flood
	// starts. Pairing each configuration with its own idle phase cancels
	// host-level drift between configurations, the same way Table III's
	// MiningRatio does.
	Idle   stats.Summary // hashes per second, pre-flood
	Mining stats.Summary // hashes per second, under flood
}

// Impact is the mining rate under flood as a fraction of the same run's
// idle rate: 1.0 means no effect, 0 means mining fully suppressed.
func (r Figure6Row) Impact() float64 {
	if r.Idle.Mean == 0 {
		return 0
	}
	return r.Mining.Mean / r.Idle.Mean
}

// Figure6Result reproduces Fig. 6: BM-DoS impact on the mining rate under
// bogus-BLOCK and PING flooding with 1, 10 and 20 Sybil connections.
type Figure6Result struct {
	Rows  []Figure6Row
	Scale Scale
}

// Figure6 runs the flood-vs-mining measurement.
func Figure6(scale Scale) (Figure6Result, error) {
	res := Figure6Result{Scale: scale}
	configs := []struct {
		attack string
		sybils int
	}{
		{"none", 0},
		{"BLOCK", 1}, {"BLOCK", 10}, {"BLOCK", 20},
		{"PING", 1}, {"PING", 10}, {"PING", 20},
	}
	for _, cfg := range configs {
		row, err := runFloodMiningConfig(scale, cfg.attack, cfg.sybils)
		if err != nil {
			return res, fmt.Errorf("config %s/%d: %w", cfg.attack, cfg.sybils, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runFloodMiningConfig measures the victim's mining rate while the given
// flood runs.
func runFloodMiningConfig(scale Scale, attackKind string, sybils int) (Figure6Row, error) {
	tb, err := scale.testbed(node.Config{ChainParams: blockchain.HardNetParams()})
	if err != nil {
		return Figure6Row{}, err
	}
	defer tb.Close()

	m := miner.New(tb.Victim.Chain())
	m.Start()
	defer m.Stop()

	// Paired idle phase: the same miner, same run, no flood yet.
	idle := sampleMiningRate(m, scale)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if attackKind != "none" {
		forge := attack.NewForge(tb.Victim.Chain().Params())
		payload := attack.EncodeBlock(forge.BogusBlock(bogusBlockTxCount))
		mgr := attack.NewSybilManager("10.0.0.66", tb.Target, wire.SimNet, tb.AttackerDialer())
		// Complete every handshake before any flooding starts: a live
		// flood starves the victim's dispatch loop on a small box and
		// can push later handshakes past their deadline.
		sessions := make([]*attack.Session, 0, sybils)
		for i := 0; i < sybils; i++ {
			s, err := mgr.NextSession(5 * time.Second)
			if err != nil {
				for _, open := range sessions {
					open.Close()
				}
				return Figure6Row{}, err
			}
			sessions = append(sessions, s)
		}
		for _, s := range sessions {
			wg.Add(1)
			go func(s *attack.Session) {
				defer wg.Done()
				defer s.Close()
				if attackKind == "BLOCK" {
					attack.FloodRaw(s, wire.CmdBlock, payload,
						attack.FloodOptions{Stop: stop, Delay: sybilFloodPacing, Burst: blockFloodBurst})
					return
				}
				f := attack.NewForge(blockchain.SimNetParams())
				attack.Flood(s, func() wire.Message { return f.Ping() },
					attack.FloodOptions{Stop: stop, Delay: sybilFloodPacing, Burst: pingFloodBurst})
			}(s)
		}
		// Let the flood reach steady state before sampling.
		clk.Sleep(scale.FloodWindow / 2)
	}

	mining := sampleMiningRate(m, scale)
	close(stop)
	wg.Wait()
	return Figure6Row{Attack: attackKind, Sybils: sybils, Idle: idle, Mining: mining}, nil
}

// sampleMiningRate measures the miner over MiningSamples windows plus two
// extras, discarding the extremes. On a small (single-core) box the
// per-window mining rate swings hard with scheduler phase: one sample can
// catch a flooder blocked on pipe back-pressure for most of its window, and
// a 1-deep trimmed sample keeps one outlier window from inverting the
// config ordering.
func sampleMiningRate(m *miner.Miner, scale Scale) stats.Summary {
	rates := make([]float64, 0, scale.MiningSamples+2)
	for i := 0; i < scale.MiningSamples+2; i++ {
		rates = append(rates, m.RateOver(scale.FloodWindow))
	}
	return stats.Summarize(trimExtremes(rates))
}

// trimExtremes returns xs without its single lowest and highest values (a
// 1-deep trimmed sample). Slices of length < 3 are returned unchanged.
func trimExtremes(xs []float64) []float64 {
	if len(xs) < 3 {
		return xs
	}
	lo, hi := 0, 0
	for i, x := range xs {
		if x < xs[lo] {
			lo = i
		}
		if x > xs[hi] {
			hi = i
		}
	}
	out := make([]float64, 0, len(xs)-2)
	for i, x := range xs {
		if i == lo || i == hi {
			continue
		}
		out = append(out, x)
	}
	return out
}

// Render prints the Fig. 6 series.
func (r Figure6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("FIGURE 6 — BM-DoS IMPACT ON MINING RATE\n")
	fmt.Fprintf(&sb, "(victim mines at hardnet difficulty; %d samples per configuration)\n", r.Scale.MiningSamples)
	fmt.Fprintf(&sb, "%-8s | %7s | %12s | %14s | %7s | %s\n", "Attack", "Sybils", "Idle (h/s)", "Mining (h/s)", "Impact", "±95% CI")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-8s | %7d | %12.0f | %14.0f | %6.1f%% | %.0f\n",
			row.Attack, row.Sybils, row.Idle.Mean, row.Mining.Mean, 100*row.Impact(), row.Mining.CI95)
	}
	return sb.String()
}

// Baseline returns the no-attack mining rate.
func (r Figure6Result) Baseline() float64 {
	for _, row := range r.Rows {
		if row.Attack == "none" {
			return row.Mining.Mean
		}
	}
	return 0
}

// Rate returns the mean mining rate of the given configuration.
func (r Figure6Result) Rate(attackKind string, sybils int) (float64, bool) {
	for _, row := range r.Rows {
		if row.Attack == attackKind && row.Sybils == sybils {
			return row.Mining.Mean, true
		}
	}
	return 0, false
}

// Table3Row is one flooding-rate configuration of Table III.
type Table3Row struct {
	Layer       string // "Bitcoin PING" or "ICMP ping"
	Rate        float64
	AttackerCPU float64 // percent of one core spent sending
	AttackerMem float64 // MB allocated by the sender during the window
	BandwidthKb float64 // kbit/s delivered to the victim
	MiningRate  float64 // victim hashes per second during the flood
	// MiningRatio is the paired-measurement impact: median of
	// (rate during flood)/(rate just before flood) across rounds.
	// Pairing cancels host-level noise (VM steal, frequency drift).
	MiningRatio float64
}

// Table3Result reproduces Table III: application-layer BM-DoS vs
// network-layer ICMP flooding.
type Table3Result struct {
	Rows  []Table3Row
	Scale Scale
}

// Table3 runs the comparison. Bitcoin PING runs at 10^2 and 10^3 msg/s (the
// paper's application-layer socket cap); ICMP runs from 10^2 to 10^6 pkt/s.
func Table3(scale Scale) (Table3Result, error) {
	res := Table3Result{Scale: scale}
	for _, rate := range []float64{1e2, 1e3} {
		row, err := runBitcoinPingFlood(scale, rate)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, rate := range []float64{1e2, 1e3, 1e4, 1e5, 1e6} {
		row, err := runICMPFlood(scale, rate)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// pacedSender sends at the target rate, accumulating the sender's busy
// time. Pacing is wall-clock based so late wake-ups (a loaded single-core
// box) are caught up with larger batches instead of silently under-sending.
func pacedSender(rate float64, window time.Duration, send func() error) (busy time.Duration, sent uint64) {
	const tick = time.Millisecond
	start := clk.Now()
	deadline := start.Add(window)
	for {
		now := clk.Now()
		if !now.Before(deadline) {
			return busy, sent
		}
		target := uint64(rate * now.Sub(start).Seconds())
		batchStart := clk.Now()
		for sent < target {
			if err := send(); err != nil {
				return busy, sent
			}
			sent++
		}
		busy += clk.Since(batchStart)
		rest := tick - clk.Since(batchStart)
		if rest > 0 {
			clk.Sleep(rest)
		}
	}
}

// pairedRounds is the number of off/on measurement pairs per flood row.
const pairedRounds = 3

// pairedFloodImpact alternates no-flood and under-flood mining samples and
// returns the mean under-flood rate plus the median paired impact ratio.
func pairedFloodImpact(m *miner.Miner, window time.Duration, rate float64, send func() error) (onMean, medianRatio float64) {
	var ons, ratios []float64
	for r := 0; r < pairedRounds; r++ {
		off := m.RateOver(window / 2)
		done := make(chan struct{})
		go func() {
			pacedSender(rate, window, send)
			close(done)
		}()
		clk.Sleep(window / 8) // let the flood reach steady state
		on := m.RateOver(window / 2)
		<-done
		ons = append(ons, on)
		if off > 0 {
			ratios = append(ratios, on/off)
		}
	}
	return stats.Mean(ons), stats.Percentile(ratios, 50)
}

func memMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1024 * 1024)
}

// calibrationWindow bounds the miner-free pre-pass that attributes memory
// allocation to the attacker's sending path alone.
const calibrationWindow = 200 * time.Millisecond

func runBitcoinPingFlood(scale Scale, rate float64) (Table3Row, error) {
	tb, err := scale.testbed(node.Config{ChainParams: blockchain.HardNetParams()})
	if err != nil {
		return Table3Row{}, err
	}
	defer tb.Close()

	s, err := tb.NewAttackSession("10.0.0.66:50001")
	if err != nil {
		return Table3Row{}, err
	}
	// Drain the victim's PONG replies like a real TCP stack would ACK
	// and buffer them; otherwise back-pressure silently idles the
	// victim's reply path and understates its per-ping work.
	drainDone := make(chan struct{})
	_ = s.Conn().SetReadDeadline(time.Time{}) // clear the handshake deadline
	go func() {
		defer close(drainDone)
		buf := make([]byte, 64*1024)
		for {
			if _, err := s.Conn().Read(buf); err != nil {
				return
			}
		}
	}()
	defer func() {
		s.Close()
		<-drainDone
	}()

	forge := attack.NewForge(blockchain.SimNetParams())
	send := func() error { return s.Send(forge.Ping()) }
	window := scale.FloodWindow

	// Miner-free calibration: the sender's CPU and allocation footprint,
	// measured without scheduler interference from the mining loop.
	calib := min(window, calibrationWindow)
	memBefore := memMB()
	calibBusy, _ := pacedSender(rate, calib, send)
	attackerMem := (memMB() - memBefore) * window.Seconds() / calib.Seconds()
	attackerCPU := 100 * calibBusy.Seconds() / calib.Seconds()

	m := miner.New(tb.Victim.Chain())
	m.Start()
	defer m.Stop()
	tb.Fabric.ResetCounters()

	mining, ratio := pairedFloodImpact(m, window, rate, send)

	bytes := tb.Fabric.BytesDelivered(tb.Target) / pairedRounds
	return Table3Row{
		Layer:       "Bitcoin PING",
		Rate:        rate,
		AttackerCPU: attackerCPU,
		AttackerMem: attackerMem,
		BandwidthKb: float64(bytes) * 8 / 1000 / window.Seconds(),
		MiningRate:  mining,
		MiningRatio: ratio,
	}, nil
}

func runICMPFlood(scale Scale, rate float64) (Table3Row, error) {
	tb, err := scale.testbed(node.Config{ChainParams: blockchain.HardNetParams()})
	if err != nil {
		return Table3Row{}, err
	}
	defer tb.Close()

	host := tb.Fabric.NewPacketHost("10.0.0.1")
	defer host.Close()

	// 64-byte echo payload, like default ping.
	payload := make([]byte, 64)
	send := func() error {
		tb.Fabric.SendPacket(host, "198.51.100.1", payload)
		return nil
	}
	window := scale.FloodWindow

	calib := min(window, calibrationWindow)
	memBefore := memMB()
	calibBusy, _ := pacedSender(rate, calib, send)
	attackerMem := (memMB() - memBefore) * window.Seconds() / calib.Seconds()
	attackerCPU := 100 * calibBusy.Seconds() / calib.Seconds()

	m := miner.New(tb.Victim.Chain())
	m.Start()
	defer m.Stop()
	tb.Fabric.ResetCounters()

	mining, ratio := pairedFloodImpact(m, window, rate, send)

	bytes := tb.Fabric.BytesDelivered("10.0.0.1") / pairedRounds
	return Table3Row{
		Layer:       "ICMP ping",
		Rate:        rate,
		AttackerCPU: attackerCPU,
		AttackerMem: attackerMem,
		BandwidthKb: float64(bytes) * 8 / 1000 / window.Seconds(),
		MiningRate:  mining,
		MiningRatio: ratio,
	}, nil
}

// Render prints Table III.
func (r Table3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("TABLE III — DoS ATTACK IMPACT-TO-COST COMPARISON\n")
	fmt.Fprintf(&sb, "%-13s | %9s | %8s | %9s | %22s | %s\n",
		"Layer", "Rate(/s)", "CPU (%)", "MEM (MB)", "Bandwidth DoSed (kb/s)", "Mining Rate (h/s)")
	sb.WriteString(strings.Repeat("-", 92) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-13s | %9.0f | %8.2f | %9.2f | %22.2f | %.0f\n",
			row.Layer, row.Rate, row.AttackerCPU, row.AttackerMem, row.BandwidthKb, row.MiningRate)
	}
	return sb.String()
}

// Row returns the row for the given layer and rate.
func (r Table3Result) Row(layer string, rate float64) (Table3Row, bool) {
	for _, row := range r.Rows {
		if row.Layer == layer && row.Rate == rate {
			return row, true
		}
	}
	return Table3Row{}, false
}

// Figure7Result is the Fig. 7 comparison: mining-rate impact of
// application- vs network-layer flooding at MATCHED rates, where the
// per-packet processing asymmetry (full message pipeline vs kernel fast
// path) becomes visible.
type Figure7Result struct {
	Rows     []Table3Row
	Baseline float64
}

// figure7Rates are the matched flood rates; higher than Table III's
// app-layer rows so the asymmetry rises above mining-rate noise at
// laptop scale.
var figure7Rates = []float64{1e3, 1e4, 1e5}

// Figure7 measures both layers at matched rates plus a no-flood baseline.
func Figure7(scale Scale) (Figure7Result, error) {
	res := Figure7Result{}
	base, err := runFloodMiningConfig(scale, "none", 0)
	if err != nil {
		return res, err
	}
	res.Baseline = base.Mining.Mean
	for _, rate := range figure7Rates {
		row, err := runBitcoinPingFlood(scale, rate)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	for _, rate := range figure7Rates {
		row, err := runICMPFlood(scale, rate)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the measurement for the given layer and rate.
func (r Figure7Result) Row(layer string, rate float64) (Table3Row, bool) {
	for _, row := range r.Rows {
		if row.Layer == layer && row.Rate == rate {
			return row, true
		}
	}
	return Table3Row{}, false
}

// Render prints the Fig. 7 series.
func (r Figure7Result) Render() string {
	var sb strings.Builder
	sb.WriteString("FIGURE 7 — MINING RATE IMPACT AT MATCHED RATES (application vs network layer)\n")
	fmt.Fprintf(&sb, "No-flood baseline: %.0f h/s\n", r.Baseline)
	fmt.Fprintf(&sb, "%-13s | %9s | %17s | %s\n", "Layer", "Rate(/s)", "Mining Rate (h/s)", "paired on/off ratio")
	sb.WriteString(strings.Repeat("-", 68) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-13s | %9.0f | %17.0f | %.0f%%\n", row.Layer, row.Rate, row.MiningRate, 100*row.MiningRatio)
	}
	return sb.String()
}
