package detect

import (
	"sync"
	"testing"
	"time"

	"banscore/internal/traffic"
	"banscore/internal/wire"
)

var t0 = time.Unix(1700000000, 0)

// trainEngine fits an engine on synthetic normal traffic.
func trainEngine(t *testing.T, hours int) *Engine {
	t.Helper()
	gen := traffic.NewGenerator(42)
	events := gen.Events(t0, time.Duration(hours)*time.Hour)
	windows := WindowsFromEvents(events, nil, DefaultWindow)
	engine, _, err := Train(windows, Config{Margin: 1.15})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

func TestMonitorWindowing(t *testing.T) {
	m := NewMonitor(time.Minute)
	for i := 0; i < 10; i++ {
		m.OnMessage(wire.CmdTx, t0.Add(time.Duration(i)*20*time.Second))
		if i == 1 {
			// In time order: the monitor advances monotonically.
			m.OnOutboundReconnect(t0.Add(30 * time.Second))
		}
	}
	windows := m.Flush()
	// 10 events spaced 20s apart span [0s,180s]: 4 windows (the last
	// partial one flushed).
	if len(windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(windows))
	}
	if windows[0].Messages != 3 || windows[0].Reconnects != 1 {
		t.Errorf("window 0 = %+v", windows[0])
	}
	if windows[0].Counts[wire.CmdTx] != 3 {
		t.Errorf("window 0 tx count = %v", windows[0].Counts[wire.CmdTx])
	}
}

func TestMonitorRatesAndHelpers(t *testing.T) {
	w := WindowStats{
		Start:      t0,
		Duration:   10 * time.Minute,
		Counts:     map[string]float64{"tx": 3000, "ping": 200},
		Messages:   3200,
		Reconnects: 53,
	}
	if got := w.RatePerMinute(); got != 320 {
		t.Errorf("RatePerMinute = %v", got)
	}
	if got := w.ReconnectRatePerMinute(); got != 5.3 {
		t.Errorf("ReconnectRatePerMinute = %v", got)
	}
	cmds := w.Commands()
	if len(cmds) != 2 || cmds[0] != "ping" || cmds[1] != "tx" {
		t.Errorf("Commands = %v", cmds)
	}
	var empty WindowStats
	if empty.RatePerMinute() != 0 || empty.ReconnectRatePerMinute() != 0 {
		t.Error("zero-duration window rates should be 0")
	}
}

func TestMonitorReset(t *testing.T) {
	m := NewMonitor(time.Minute)
	m.OnMessage("tx", t0)
	m.Reset()
	if got := m.Flush(); len(got) != 0 {
		t.Errorf("windows after reset = %d", len(got))
	}
}

func TestTrainRequiresData(t *testing.T) {
	if _, _, err := Train(nil, Config{}); err != ErrNoTrainingData {
		t.Errorf("Train(nil) = %v", err)
	}
}

func TestTrainedThresholdsResemblePaper(t *testing.T) {
	engine := trainEngine(t, 35) // the paper trained ~35 hours
	th := engine.Thresholds()
	// τ_n should bracket the generator's 320 msg/min and stay inside a
	// plausible band around the paper's [252, 390].
	if th.NMin > 320 || th.NMax < 320 {
		t.Errorf("τ_n = [%v, %v] does not bracket 320", th.NMin, th.NMax)
	}
	if th.NMin < 180 || th.NMax > 480 {
		t.Errorf("τ_n = [%v, %v] implausibly wide", th.NMin, th.NMax)
	}
	// τ_c: no reconnects in normal training, so a small allowance.
	if th.CMax <= 0 || th.CMax > 3 {
		t.Errorf("τ_c max = %v", th.CMax)
	}
	// τ_Λ: normal windows are highly self-similar.
	if th.LambdaMin < 0.9 || th.LambdaMin >= 1 {
		t.Errorf("τ_Λ = %v, want high correlation threshold", th.LambdaMin)
	}
	if th.String() == "" {
		t.Error("empty threshold string")
	}
}

func TestNormalTrafficNotFlagged(t *testing.T) {
	engine := trainEngine(t, 35)
	// Fresh normal traffic from a different seed.
	events := traffic.NewGenerator(7).Events(t0.Add(100*time.Hour), 2*time.Hour)
	windows := WindowsFromEvents(events, nil, DefaultWindow)
	verdicts, _ := engine.DetectAll(windows)
	flagged := 0
	for _, v := range verdicts {
		if v.Anomalous {
			flagged++
		}
	}
	// Allow at most a stray window at the boundary.
	if flagged > len(verdicts)/10 {
		t.Errorf("%d/%d normal windows flagged", flagged, len(verdicts))
	}
}

func TestBMDoSDetected(t *testing.T) {
	engine := trainEngine(t, 35)
	start := t0.Add(200 * time.Hour)
	normal := traffic.NewGenerator(9).Events(start, time.Hour)
	// The paper's under-BM-DoS case: ~15,000 msg/min of PING flooding.
	flood := traffic.FloodEvents(wire.CmdPing, start, time.Hour, 15000)
	windows := WindowsFromEvents(traffic.Overlay(normal, flood), nil, DefaultWindow)
	verdicts, _ := engine.DetectAll(windows)
	if len(verdicts) == 0 {
		t.Fatal("no windows")
	}
	for i, v := range verdicts {
		if !v.Anomalous {
			t.Fatalf("window %d not flagged: %+v", i, v)
		}
		if !v.TriggeredN {
			t.Errorf("window %d: message rate feature missed a 15k/min flood (n=%v)", i, v.N)
		}
		if !v.TriggeredLambda {
			t.Errorf("window %d: distribution feature missed the flood (ρ=%v)", i, v.Rho)
		}
		// The paper measured ρ = 0.05 under BM-DoS: PING dominance
		// destroys the correlation.
		if v.Rho > 0.5 {
			t.Errorf("window %d: ρ = %v, want near zero under PING dominance", i, v.Rho)
		}
	}
}

func TestDefamationDetected(t *testing.T) {
	engine := trainEngine(t, 35)
	start := t0.Add(300 * time.Hour)
	normal := traffic.NewGenerator(11).Events(start, time.Hour)
	// The paper's under-Defamation case: c = 5.3 reconnections/min.
	defEvents, reconnects := traffic.DefamationEvents(start, time.Hour, 5.3)
	windows := WindowsFromEvents(traffic.Overlay(normal, defEvents), reconnects, DefaultWindow)
	verdicts, _ := engine.DetectAll(windows)
	if len(verdicts) == 0 {
		t.Fatal("no windows")
	}
	for i, v := range verdicts {
		if !v.Anomalous {
			t.Fatalf("window %d not flagged: %+v", i, v)
		}
		if !v.TriggeredC {
			t.Errorf("window %d: reconnection feature missed c=%v", i, v.C)
		}
		// Defamation distorts the distribution mildly (paper: ρ = 0.88
		// vs BM-DoS's 0.05): correlation stays moderate-to-high.
		if v.Rho < 0.5 {
			t.Errorf("window %d: ρ = %v, defamation should distort far less than BM-DoS", i, v.Rho)
		}
	}
}

func TestDefamationLessDistortingThanBMDoS(t *testing.T) {
	engine := trainEngine(t, 35)
	start := t0.Add(400 * time.Hour)

	normal1 := traffic.NewGenerator(13).Events(start, time.Hour)
	flood := traffic.FloodEvents(wire.CmdPing, start, time.Hour, 15000)
	bmdos := WindowsFromEvents(traffic.Overlay(normal1, flood), nil, DefaultWindow)

	normal2 := traffic.NewGenerator(17).Events(start, time.Hour)
	defEvents, reconnects := traffic.DefamationEvents(start, time.Hour, 5.3)
	defamation := WindowsFromEvents(traffic.Overlay(normal2, defEvents), reconnects, DefaultWindow)

	vb, _ := engine.DetectAll(bmdos)
	vd, _ := engine.DetectAll(defamation)
	meanRho := func(vs []Detection) float64 {
		sum := 0.0
		for _, v := range vs {
			sum += v.Rho
		}
		return sum / float64(len(vs))
	}
	// The paper's ordering: ρ(BM-DoS)=0.05 ≪ ρ(Defamation)=0.88 < τ_Λ.
	if meanRho(vb) >= meanRho(vd) {
		t.Errorf("ρ(BM-DoS)=%v should be far below ρ(Defamation)=%v", meanRho(vb), meanRho(vd))
	}
}

func TestDetectionAccuracy100OnNonEvasiveAttacker(t *testing.T) {
	engine := trainEngine(t, 35)
	start := t0.Add(500 * time.Hour)

	var windows []WindowStats
	var labels []bool

	normal := WindowsFromEvents(traffic.NewGenerator(19).Events(start, time.Hour), nil, DefaultWindow)
	for _, w := range normal {
		windows = append(windows, w)
		labels = append(labels, false)
	}
	atk := start.Add(24 * time.Hour)
	flood := traffic.Overlay(
		traffic.NewGenerator(23).Events(atk, time.Hour),
		traffic.FloodEvents(wire.CmdPing, atk, time.Hour, 15000),
	)
	for _, w := range WindowsFromEvents(flood, nil, DefaultWindow) {
		windows = append(windows, w)
		labels = append(labels, true)
	}
	verdicts, _ := engine.DetectAll(windows)
	if acc := Accuracy(verdicts, labels); acc != 1.0 {
		t.Errorf("accuracy = %v, want 1.0 (paper: attacker makes no evasion effort)", acc)
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if Accuracy([]Detection{{Anomalous: true}}, []bool{true, false}) != 0 {
		t.Error("mismatched lengths should be 0")
	}
}

func TestDetectionReasons(t *testing.T) {
	d := Detection{}
	if d.Reasons() != "normal" {
		t.Errorf("Reasons = %q", d.Reasons())
	}
	d = Detection{TriggeredC: true, TriggeredN: true, TriggeredLambda: true}
	if d.Reasons() == "normal" || d.Reasons() == "" {
		t.Error("triggered reasons missing")
	}
}

func TestNewEngineFromExplicitThresholds(t *testing.T) {
	// The paper's published thresholds, used directly.
	engine := NewEngine(Thresholds{
		CMin: 0, CMax: 2.1,
		NMin: 252, NMax: 390,
		LambdaMin: 0.993,
		Commands:  []string{"ping", "tx"},
		Reference: []float64{0.1, 0.9},
	})
	w := WindowStats{
		Start:    t0,
		Duration: 10 * time.Minute,
		Counts:   map[string]float64{"ping": 150000, "tx": 3000},
		Messages: 153000,
	}
	d := engine.Detect(w)
	if !d.Anomalous || !d.TriggeredN || !d.TriggeredLambda {
		t.Errorf("detection = %+v", d)
	}
}

func TestTrainingLatencyReported(t *testing.T) {
	gen := traffic.NewGenerator(42)
	events := gen.Events(t0, 2*time.Hour)
	windows := WindowsFromEvents(events, nil, DefaultWindow)
	_, dur, err := Train(windows, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dur <= 0 {
		t.Error("training latency not measured")
	}
}

func TestMonitorConcurrentSafe(t *testing.T) {
	m := NewMonitor(time.Minute)
	var wg sync.WaitGroup
	base := time.Unix(1700000000, 0)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				at := base.Add(time.Duration(i) * 10 * time.Millisecond)
				if g%2 == 0 {
					m.OnMessage(wire.CmdTx, at)
				} else {
					m.OnOutboundReconnect(at)
				}
			}
		}(g)
	}
	wg.Wait()
	windows := m.Flush()
	totalMsgs, totalRecs := 0, 0
	for _, w := range windows {
		totalMsgs += w.Messages
		totalRecs += w.Reconnects
	}
	if totalMsgs != 4*500 || totalRecs != 4*500 {
		t.Errorf("counted %d msgs / %d reconnects, want 2000 each", totalMsgs, totalRecs)
	}
}

func TestTrainMarginWidensBounds(t *testing.T) {
	gen := traffic.NewGenerator(42)
	windows := WindowsFromEvents(gen.Events(t0, 4*time.Hour), nil, DefaultWindow)
	tight, _, err := Train(windows, Config{Margin: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := Train(windows, Config{Margin: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	tt, wt := tight.Thresholds(), wide.Thresholds()
	if !(wt.NMin < tt.NMin && wt.NMax > tt.NMax) {
		t.Errorf("margin did not widen n bounds: tight=[%v,%v] wide=[%v,%v]", tt.NMin, tt.NMax, wt.NMin, wt.NMax)
	}
	if wt.LambdaMin >= tt.LambdaMin {
		t.Errorf("margin did not relax τ_Λ: %v vs %v", tt.LambdaMin, wt.LambdaMin)
	}
	if wt.CMax <= tt.CMax {
		t.Errorf("margin did not widen τ_c: %v vs %v", tt.CMax, wt.CMax)
	}
}
