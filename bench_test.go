// Benchmarks regenerating the paper's evaluation artifacts as testing.B
// targets: one benchmark (family) per table and figure, plus ablation
// benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// The full experiment harness with paper-style rendering lives in
// cmd/experiments; these benches expose the same measurements to standard
// Go tooling.
package banscore_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"banscore/internal/attack"
	"banscore/internal/blockchain"
	"banscore/internal/chainhash"
	"banscore/internal/core"
	"banscore/internal/detect"
	"banscore/internal/experiments"
	"banscore/internal/miner"
	"banscore/internal/mlbase"
	"banscore/internal/telemetry"
	"banscore/internal/trace"
	"banscore/internal/traffic"
	"banscore/internal/wire"
)

// benchEnv is a victim node + handshaken attacker peer for direct-injection
// message benchmarks.
type benchEnv struct {
	tb      *experiments.Testbed
	session *attack.Session
	peer    benchPeer
	forge   *attack.Forge
}

type benchPeer interface {
	HandshakeComplete() bool
}

func newBenchEnv(b *testing.B) (*experiments.Testbed, *attack.Session, *attack.Forge, processFunc) {
	b.Helper()
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{
		TrackerConfig: core.Config{Mode: core.ModeThresholdInfinity},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(tb.Close)
	const attacker = "10.0.0.2:50001"
	s, err := tb.NewAttackSession(attacker)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	p, err := tb.VictimPeer(attacker)
	if err != nil {
		b.Fatal(err)
	}
	forge := attack.NewForge(tb.Victim.Chain().Params())
	process := func(msg wire.Message) { tb.Victim.ProcessMessageDirect(p, msg, 0) }
	return tb, s, forge, process
}

type processFunc func(wire.Message)

// BenchmarkTelemetryNodeDispatch measures what the telemetry hooks cost on
// the node's hot dispatch path: the same direct-injection PING pipeline
// with no registry attached and with a live registry + journal. The
// enabled/disabled delta is the instrumentation overhead — one atomic
// counter increment through a single-entry command cache plus a 1-in-64
// sampled latency timing, ~6 ns (≈5%) on the development host.
func BenchmarkTelemetryNodeDispatch(b *testing.B) {
	run := func(b *testing.B, cfg experiments.TestbedConfig) {
		cfg.TrackerConfig = core.Config{Mode: core.ModeThresholdInfinity}
		tb, err := experiments.NewTestbed(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tb.Close)
		const attacker = "10.0.0.2:50001"
		s, err := tb.NewAttackSession(attacker)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		p, err := tb.VictimPeer(attacker)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Victim.ProcessMessageDirect(p, wire.NewMsgPing(uint64(i)), 0)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		run(b, experiments.TestbedConfig{})
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, experiments.TestbedConfig{
			Telemetry: telemetry.NewRegistry(),
			Journal:   telemetry.NewJournal(0),
		})
	})
}

// BenchmarkTraceDispatch measures what the message-lifecycle tracer costs
// on the node's hot dispatch path: the same direct-injection PING pipeline
// with no tracer threaded, with a tracer configured but disabled (the
// production resting state — one atomic load per message), and with tracing
// live at the default 1-in-64 and the maximal 1-in-1 sampling rates. The
// disabled variant must be indistinguishable from none; sample64 bounds the
// always-on overhead a node pays for a queryable flight recorder.
func BenchmarkTraceDispatch(b *testing.B) {
	run := func(b *testing.B, tracer *trace.Tracer) {
		tb, err := experiments.NewTestbed(experiments.TestbedConfig{
			TrackerConfig: core.Config{Mode: core.ModeThresholdInfinity},
			Tracer:        tracer,
			Forensics:     core.NewLedger(0, 0),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tb.Close)
		const attacker = "10.0.0.2:50001"
		s, err := tb.NewAttackSession(attacker)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		p, err := tb.VictimPeer(attacker)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb.Victim.ProcessMessageDirect(p, wire.NewMsgPing(uint64(i)), 0)
		}
	}
	b.Run("none", func(b *testing.B) {
		run(b, nil)
	})
	b.Run("disabled", func(b *testing.B) {
		run(b, trace.New(trace.Config{}))
	})
	b.Run("sample64", func(b *testing.B) {
		tracer := trace.New(trace.Config{SampleN: 64})
		tracer.Enable()
		run(b, tracer)
	})
	b.Run("sample1", func(b *testing.B) {
		tracer := trace.New(trace.Config{SampleN: 1})
		tracer.Enable()
		run(b, tracer)
	})
}

// BenchmarkTable1Render regenerates Table I.
func BenchmarkTable1Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().Render() == "" {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2VictimProcessing measures victim-side processing per
// message type — the "Victim's impact" column of Table II.
func BenchmarkTable2VictimProcessing(b *testing.B) {
	tb, _, forge, process := newBenchEnv(b)

	bogus := forge.BogusBlock(400)
	if _, err := blockchain.Solve(bogus, tb.Victim.Chain().Params().PowLimit); err != nil {
		b.Fatal(err)
	}
	txPool := make([]*wire.MsgTx, 8192)
	for i := range txPool {
		txPool[i] = forge.ValidTx()
	}
	cases := []struct {
		name string
		msg  func(i int) wire.Message
	}{
		{"PING", func(int) wire.Message { return wire.NewMsgPing(1) }},
		{"TX", func(i int) wire.Message { return txPool[i%len(txPool)] }},
		{"BLOCK_bogus400tx", func(int) wire.Message { return bogus }},
		{"ADDR_oversize", func(int) wire.Message { return forge.OversizeAddr() }},
	}
	for _, tc := range cases {
		msg0 := tc.msg(0)
		b.Run(tc.name, func(b *testing.B) {
			_ = msg0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				process(tc.msg(i))
			}
		})
	}
}

// BenchmarkTable2AttackerCraft measures attacker-side crafting per message
// type — the "Attacker's cost" column of Table II.
func BenchmarkTable2AttackerCraft(b *testing.B) {
	forge := attack.NewForge(blockchain.SimNetParams())
	cases := []struct {
		name  string
		craft func() wire.Message
	}{
		{"PING", func() wire.Message { return forge.Ping() }},
		{"TX", func() wire.Message { return forge.ValidTx() }},
		{"ADDR_oversize", func() wire.Message { return forge.OversizeAddr() }},
		{"HEADERS_oversize", func() wire.Message { return forge.OversizeHeaders() }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = tc.craft()
			}
		})
	}
}

// BenchmarkFigure6MiningContention measures the miner's per-hash cost alone
// and under a concurrent bogus-BLOCK flood — the mechanism behind Fig. 6.
func BenchmarkFigure6MiningContention(b *testing.B) {
	b.Run("baseline", func(b *testing.B) {
		rate := miner.HashRateSample(uint64(b.N))
		b.ReportMetric(rate, "hashes/s")
	})
	b.Run("under-block-flood", func(b *testing.B) {
		tb, s, forge, _ := newBenchEnv(b)
		_ = tb
		payload := attack.EncodeBlock(forge.BogusBlock(2000))
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			attack.FloodRaw(s, wire.CmdBlock, payload, attack.FloodOptions{Stop: stop})
		}()
		b.ResetTimer()
		rate := miner.HashRateSample(uint64(b.N))
		b.StopTimer()
		close(stop)
		<-done
		b.ReportMetric(rate, "hashes/s")
	})
}

// BenchmarkTable3PacketPaths compares the per-packet victim cost of the
// application-layer PING pipeline vs the kernel-path ICMP handling — the
// asymmetry behind Table III / Fig. 7.
func BenchmarkTable3PacketPaths(b *testing.B) {
	b.Run("bitcoin-ping-pipeline", func(b *testing.B) {
		_, _, _, process := newBenchEnv(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			process(wire.NewMsgPing(uint64(i)))
		}
	})
	b.Run("icmp-kernel-path", func(b *testing.B) {
		tb, err := experiments.NewTestbed(experiments.TestbedConfig{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tb.Close)
		host := tb.Fabric.NewPacketHost("10.0.0.1")
		b.Cleanup(host.Close)
		payload := make([]byte, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for !tb.Fabric.SendPacket(host, "198.51.100.1", payload) {
				time.Sleep(time.Microsecond)
			}
		}
	})
}

// BenchmarkFigure8DefamationPrimitive measures the per-message cost of the
// Defamation primitive: a duplicate VERSION through the victim pipeline,
// including misbehavior scoring.
func BenchmarkFigure8DefamationPrimitive(b *testing.B) {
	_, _, _, process := newBenchEnv(b)
	me := wire.NewNetAddressIPPort(nil, 0, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(nil, 0, 0)
	version := wire.NewMsgVersion(me, you, 1, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		process(version)
	}
}

// BenchmarkFigure10Detection measures the per-window cost of the trained
// statistical engine — the testing-latency side of Fig. 10/11.
func BenchmarkFigure10Detection(b *testing.B) {
	t0 := time.Unix(1700000000, 0)
	windows := detect.WindowsFromEvents(
		traffic.NewGenerator(42).Events(t0, 35*time.Hour), nil, detect.DefaultWindow)
	engine, _, err := detect.Train(windows, detect.Config{Margin: 1.15})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Detect(windows[i%len(windows)])
	}
}

// BenchmarkFigure11Training compares training cost: the statistical engine
// vs each ML baseline on the same dataset.
func BenchmarkFigure11Training(b *testing.B) {
	t0 := time.Unix(1700000000, 0)
	windows := detect.WindowsFromEvents(
		traffic.NewGenerator(42).Events(t0, 35*time.Hour), nil, detect.DefaultWindow)
	commands := []string{
		wire.CmdTx, wire.CmdInv, wire.CmdGetData, wire.CmdHeaders,
		wire.CmdPing, wire.CmdPong, wire.CmdAddr, wire.CmdVersion, wire.CmdVerAck,
	}
	x := mlbase.Dataset(windows, commands)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = float64(i % 2) // alternating labels keep supervised fits busy
	}

	b.Run("Ours", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := detect.Train(windows, detect.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	builders := []func() mlbase.Model{
		func() mlbase.Model { return &mlbase.LogisticRegression{} },
		func() mlbase.Model { return &mlbase.LinearSVM{} },
		func() mlbase.Model { return &mlbase.OneClassSVM{} },
		func() mlbase.Model { return &mlbase.RandomForest{Trees: 20} },
		func() mlbase.Model { return &mlbase.DNN{Epochs: 20} },
		func() mlbase.Model { return &mlbase.AutoEncoder{Epochs: 20} },
		func() mlbase.Model { return &mlbase.GradientBoosting{Rounds: 5} },
	}
	for _, build := range builders {
		name := build().Name()
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := build().Train(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationChecksumOrdering contrasts the transport-layer drop of a
// bogus-checksum BLOCK against full validation of the same payload with a
// correct checksum — the ordering property BM-DoS vector 2 exploits.
func BenchmarkAblationChecksumOrdering(b *testing.B) {
	params := blockchain.SimNetParams()
	forge := attack.NewForge(params)
	block := forge.BogusBlock(400)
	if _, err := blockchain.Solve(block, params.PowLimit); err != nil {
		b.Fatal(err)
	}
	payload := attack.EncodeBlock(block)

	frame := func(checksumOK bool) []byte {
		var buf bytes.Buffer
		if checksumOK {
			_, _ = wire.WriteRawMessage(&buf, wire.CmdBlock, payload, wire.SimNet)
		} else {
			_, _ = wire.WriteRawMessageChecksum(&buf, wire.CmdBlock, payload, wire.SimNet, [4]byte{1, 2, 3, 4})
		}
		return buf.Bytes()
	}
	badFrame, goodFrame := frame(false), frame(true)

	b.Run("bad-checksum-dropped-at-transport", func(b *testing.B) {
		b.SetBytes(int64(len(badFrame)))
		for i := 0; i < b.N; i++ {
			_, _, err := wire.ReadMessage(bytes.NewReader(badFrame), wire.ProtocolVersion, wire.SimNet)
			if err == nil {
				b.Fatal("bogus frame accepted")
			}
		}
	})
	b.Run("good-checksum-full-validation", func(b *testing.B) {
		chain := blockchain.New(params)
		b.SetBytes(int64(len(goodFrame)))
		for i := 0; i < b.N; i++ {
			msg, _, err := wire.ReadMessage(bytes.NewReader(goodFrame), wire.ProtocolVersion, wire.SimNet)
			if err != nil {
				b.Fatal(err)
			}
			_, _ = chain.ProcessBlock(msg.(*wire.MsgBlock)) // orphan: full sanity every time
		}
	})
}

// BenchmarkAblationBanGranularity compares tracking by [IP:Port] (the
// paper's spoofable identifier) against whole-IP tracking.
func BenchmarkAblationBanGranularity(b *testing.B) {
	b.Run("per-ip-port", func(b *testing.B) {
		tr := core.NewTracker(core.Config{Mode: core.ModeThresholdInfinity})
		for i := 0; i < b.N; i++ {
			id := core.PeerIDFromAddr(fmt.Sprintf("10.0.0.2:%d", 49152+i%16384))
			tr.MisbehavingCtx(id, true, core.VersionDuplicate, core.MisbehaviorContext{})
		}
	})
	b.Run("per-ip", func(b *testing.B) {
		tr := core.NewTracker(core.Config{Mode: core.ModeThresholdInfinity})
		id := core.PeerIDFromAddr("10.0.0.2:0") // one bucket per IP
		for i := 0; i < b.N; i++ {
			tr.MisbehavingCtx(id, true, core.VersionDuplicate, core.MisbehaviorContext{})
		}
	})
}

// BenchmarkAblationDetectionWindow sweeps the detection window length the
// engine aggregates over (the paper uses 10 minutes).
func BenchmarkAblationDetectionWindow(b *testing.B) {
	t0 := time.Unix(1700000000, 0)
	events := traffic.NewGenerator(42).Events(t0, 35*time.Hour)
	for _, window := range []time.Duration{time.Minute, 10 * time.Minute, time.Hour} {
		b.Run(window.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				windows := detect.WindowsFromEvents(events, nil, window)
				if _, _, err := detect.Train(windows, detect.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireBlockRoundTrip measures serialization throughput of the
// largest message the attacks lean on, decoded the way the node decodes it:
// from the verified payload.
func BenchmarkWireBlockRoundTrip(b *testing.B) {
	forge := attack.NewForge(blockchain.SimNetParams())
	raw := attack.EncodeBlock(forge.BogusBlock(400))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out wire.MsgBlock
		if err := out.BtcDecode(raw, wire.ProtocolVersion); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMerkleRoot measures the merkle computation at the block sizes
// the experiments use.
func BenchmarkMerkleRoot(b *testing.B) {
	for _, n := range []int{100, 400, 2000} {
		leaves := make([]chainhash.Hash, n)
		for i := range leaves {
			leaves[i] = chainhash.DoubleHashH([]byte{byte(i), byte(i >> 8)})
		}
		b.Run(fmt.Sprintf("%d-leaves", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chainhash.MerkleRoot(leaves)
			}
		})
	}
}
