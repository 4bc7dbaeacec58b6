package main

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"banscore/internal/core"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// parent side re-executes os.Executable() as a child, and here that is the
// test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && (os.Args[1] == "child" || os.Args[1] == "probe") {
		os.Exit(dispatch(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func testOptions(units int) runOptions {
	return runOptions{seed: 1, units: units, deadline: time.Now().Add(30 * time.Second)}
}

// The smallest counts the workloads accept.
func minUnits(t *testing.T, name string) int {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w.minUnits
}

// Same seed, byte-identical inputs (pinned); another seed, other nonces,
// payloads and identity order.
func TestInputsComeFromTheSeed(t *testing.T) {
	digests := func(seed int64) map[string]string {
		t.Helper()
		out := map[string]string{}
		ping, err := pingStream(seed, 4096)
		if err != nil {
			t.Fatal(err)
		}
		block, err := blockStream(seed, 8)
		if err != nil {
			t.Fatal(err)
		}
		honest, err := newHonestInputs(seed, 4096)
		if err != nil {
			t.Fatal(err)
		}
		sybil, err := newSybilInputs(seed, 140)
		if err != nil {
			t.Fatal(err)
		}
		for name, d := range map[string][32]byte{
			"ping_flood": ping.digest(), "bogus_block_flood": block.digest(),
			"honest_relay": honest.stream.digest(), "sybil": sybil.digest(),
		} {
			out[name] = hex.EncodeToString(d[:])
		}
		return out
	}
	a, again, b := digests(1), digests(1), digests(2)
	if !reflect.DeepEqual(a, again) {
		t.Errorf("seed 1 gave two different sets of inputs:\n%v\n%v", a, again)
	}
	for name := range a {
		if a[name] == b[name] {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", name)
		}
	}
	for name, want := range pinnedDigests {
		if a[name] != want {
			t.Errorf("%s: seed 1 digest %s, pinned %s — the generator changed, so results no longer compare with earlier ones", name, a[name], want)
		}
	}

	s1, _ := newSybilInputs(1, 140)
	s2, _ := newSybilInputs(2, 140)
	if reflect.DeepEqual(s1.order, s2.order) {
		t.Error("identity order does not depend on the seed")
	}
	if string(s1.dup) == string(s2.dup) {
		t.Error("VERSION nonce does not depend on the seed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloadSpecs {
		check("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range endToEnd {
		check("end-to-end metric", m.name)
	}
	for _, m := range reportOnly {
		check("end-to-end metric", m.name)
	}
	for _, m := range perLayer {
		check("per-layer metric", m.name)
	}
}

// benchmarkJSON mirrors the driver's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// BENCHMARK.json and spec.go declare the same benchmark, both ways.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, spec %d", b.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want [benchmark]", b.Paths)
	}
	var names []string
	for i, w := range b.Workloads {
		names = append(names, w.Name)
		if i < len(workloadSpecs) && w.Why != workloadSpecs[i].why {
			t.Errorf("workload %s: why differs from spec.go", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, spec %v", names, workloadNames())
	}
	compare := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, spec.go %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound):
				t.Errorf("%s %s: bound differs from spec.go's %v", kind, m.name, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.name)
			}
		}
	}
	compare("end_to_end", b.EndToEnd, endToEnd, true)
	compare("per_layer", b.PerLayer, perLayer, false)
}

// A smoke run of all five workloads — one child each, then the traced run —
// emits exactly the declared names, and every check passes. No timing is
// asserted.
func TestSmokeRunEmitsTheDeclaredNames(t *testing.T) {
	declared := map[string]bool{}
	for _, m := range perLayer {
		declared[m.name] = false // true once some workload gives it a value
	}
	optional := map[string][]string{ // end-to-end metrics beyond the seven every workload has
		"sybil_swarm":          {"bans_per_s"},
		"serial_sybil_durable": {"bans_per_s", "ban_latency_us_p50"},
	}
	dir := t.TempDir()
	for _, w := range workloadSpecs {
		res := measureWorkload(w, 1, smokeSeconds, 1)
		if res.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		want := map[string]bool{"failed_share": true}
		for _, m := range endToEnd {
			want[m.name] = true
		}
		for _, name := range optional[w.name] {
			want[name] = true
		}
		for name := range res.Metrics {
			if !want[name] {
				t.Errorf("%s: emitted undeclared end-to-end metric %q", w.name, name)
			}
			delete(want, name)
		}
		for name := range want {
			t.Errorf("%s: did not emit end-to-end metric %q", w.name, name)
		}
		for _, m := range endToEnd {
			if s := res.Metrics[m.name]; s.Median <= 0 {
				t.Errorf("%s: %s is %v; the driver needs it above zero", w.name, m.name, s.Median)
			}
		}

		tr := traceWorkload(w, 1, smokeSeconds, dir)
		if tr.Failed != 0 {
			t.Errorf("%s traced: %d operations failed: %v", w.name, tr.Failed, tr.Failures)
		}
		for name, v := range tr.Layer {
			if strings.HasPrefix(name, "probe.") || name == "ledger.total_ns_per_msg" {
				continue // working values of the ledger, not metrics
			}
			if _, ok := declared[name]; !ok {
				t.Errorf("%s traced: emitted undeclared per-layer metric %q", w.name, name)
			}
			if v != 0 {
				declared[name] = true
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s traced: no trace file: %v", w.name, err)
		}
	}
	for name, seen := range declared {
		// Shed records are declared and must be zero on a healthy run.
		if !seen && name != "banstore.shed_records" {
			t.Errorf("per-layer metric %q has no value on any workload", name)
		}
	}
}

// The Sybil checks fire on a victim that keeps score but never bans.
func TestSybilChecksFireOnAVictimThatNeverBans(t *testing.T) {
	for name, run := range map[string]func(runOptions) (*childResult, error){
		"sybil_swarm": runSybilSwarm, "serial_sybil_durable": runSerialSybil,
	} {
		o := testOptions(minUnits(t, name))
		o.mode = core.ModeThresholdInfinity
		res, err := run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed < res.Attempted {
			t.Errorf("%s against ModeThresholdInfinity: %d of %d identities failed, want all (%v)", name, res.Failed, res.Attempted, res.Failures)
		}
		o.mode = 0
		res, err = run(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failed != 0 {
			t.Errorf("%s against the default victim: %d failed: %v", name, res.Failed, res.Failures)
		}
	}
}

// A victim that is still dispatching frames is not stuck, however long no
// connection closes: the swarm engine bans once per pass over its ready
// connections. The watch gives up only when the frame count stands still too.
func TestSybilWatchWaitsWhileTheVictimWorks(t *testing.T) {
	w := newSybilWatch(1)
	w.unsettled.Store(0) // answered, still open: what a missing ban looks like
	var frames atomic.Uint64
	stop := make(chan struct{})
	go func() {
		for tick := time.NewTicker(5 * time.Millisecond); ; {
			select {
			case <-stop:
				tick.Stop()
				return
			case <-tick.C:
				frames.Add(1)
			}
		}
	}()
	time.AfterFunc(800*time.Millisecond, func() {
		w.lastDone.Store(time.Now().UnixNano())
		w.open.Store(0)
		close(w.done)
	})
	_, ok := w.wait(time.Now().Add(10*time.Second), frames.Load)
	close(stop)
	if !ok {
		t.Fatal("watch gave up on a victim whose frame count was still moving")
	}

	idle := newSybilWatch(1)
	idle.unsettled.Store(0)
	begin := time.Now()
	if _, ok := idle.wait(begin.Add(10*time.Second), frames.Load); ok || time.Since(begin) > 5*time.Second {
		t.Fatalf("watch on an idle victim: ok=%v after %v, want it to give up early", ok, time.Since(begin))
	}
}

// The score-free checks fire when the victim scores, bans or drops a peer
// that Table I says it must leave alone, and when frames go unaccounted.
func TestScoreFreeChecksFire(t *testing.T) {
	v, err := newVictim(victimOptions{kind: victimFull})
	if err != nil {
		t.Fatal(err)
	}
	defer v.close()
	c, err := connect(v, flooderAddr, 1, time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()

	fresh := func() *childResult { return &childResult{Attempted: 1000} }
	res := fresh()
	mustStayInnocent(res, v, c.id, "flooder")
	if res.Failed != 0 {
		t.Fatalf("an innocent, connected peer failed the check: %v", res.Failures)
	}

	v.node.Tracker().BanList().Ban(c.id, time.Hour)
	res = fresh()
	mustStayInnocent(res, v, c.id, "flooder")
	if res.Failed != res.Attempted {
		t.Errorf("a banned flooder failed %d of %d operations, want all", res.Failed, res.Attempted)
	}
	v.node.Tracker().BanList().Unban(c.id)

	v.node.DisconnectPeer(c.id)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if _, ok := v.node.Peer(c.id); !ok {
			break
		}
	}
	res = fresh()
	mustStayInnocent(res, v, c.id, "flooder")
	if res.Failed != res.Attempted {
		t.Errorf("a disconnected flooder failed %d of %d operations, want all", res.Failed, res.Attempted)
	}

	res = fresh()
	mustAccountFor(res, 990, 1000)
	if res.Failed != 10 {
		t.Errorf("10 unaccounted frames failed %d operations", res.Failed)
	}
	res = fresh()
	mustAccountFor(res, 1001, 1000)
	if res.Failed != res.Attempted {
		t.Errorf("a frame nobody wrote failed %d of %d operations, want all", res.Failed, res.Attempted)
	}
}

// A child that crashes or runs into its deadline counts every operation as
// failed; it is not retried and not dropped.
func TestLostChildCountsAsFailed(t *testing.T) {
	crashed := spawnChild("child", "no_such_workload", 1, 500, 20*time.Second)
	if crashed.Failed != 500 || crashed.Attempted != 500 {
		t.Errorf("crashed child: attempted %d failed %d, want 500/500", crashed.Attempted, crashed.Failed)
	}
	killed := spawnChild("child", "ping_flood", 1, 1<<30, 300*time.Millisecond)
	if killed.Failed != killed.Attempted || len(killed.Failures) == 0 || !strings.Contains(killed.Failures[0], "deadline") {
		t.Errorf("child past its deadline: attempted %d failed %d (%v)", killed.Attempted, killed.Failed, killed.Failures)
	}
}

// A temporary directory left behind is reported.
func TestLeftoverTempDirIsSeen(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	if left := leftoverTempDirs(); len(left) != 0 {
		t.Fatalf("fresh temp root already holds %v", left)
	}
	dir, err := os.MkdirTemp("", tempPrefix+"wal-")
	if err != nil {
		t.Fatal(err)
	}
	if left := leftoverTempDirs(); len(left) != 1 {
		t.Errorf("leftover %s not seen: %v", dir, left)
	}
}

func TestCheckVerdicts(t *testing.T) {
	higher := metricSpec{"absorb_msgs_per_s", "1/s", "higher", 0.10}
	lower := metricSpec{"cpu_ns_per_msg", "ns", "lower", 0.10}
	s := func(min, med, max float64) summary { return summary{Median: med, Min: min, Max: max, N: 3} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b summary
		want string
	}{
		{"within the bound", higher, s(98, 100, 102), s(93, 95, 97), "same"},
		{"slower by more than the bound", higher, s(98, 100, 102), s(84, 85, 86), "worse"},
		{"faster", higher, s(98, 100, 102), s(120, 125, 130), "same"},
		{"spread wider than the bound", higher, s(85, 100, 115), s(80, 95, 110), "unresolved"},
		{"wide spread but every run better", lower, s(100, 120, 140), s(60, 70, 99), "same"},
		{"costlier by more than the bound", lower, s(98, 100, 102), s(114, 115, 116), "worse"},
		{"set-up within half a second", endToEnd[0], s(0.9, 1.0, 1.1), s(1.3, 1.4, 1.45), "same"},
		{"failures rose", reportOnly[2], s(0, 0, 0), s(0.01, 0.01, 0.01), "worse"},
	} {
		if got := compare(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
