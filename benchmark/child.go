package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"banscore/internal/core"
)

// childResult is what one child process measured. It is the last line of the
// child's standard output.
type childResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Units     int      `json:"units"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Metrics holds the end-to-end metrics by name; peak_rss_mb is added
	// by the parent from the child's rusage.
	Metrics map[string]float64 `json:"metrics"`

	// Layer holds the per-layer metrics that can only be read inside the
	// end-to-end run itself (prober RTTs, GC share, swarm occupancy, WAL
	// recovery). The traced run merges them with the probes' values.
	Layer map[string]float64 `json:"layer"`
}

func newResult(attempted int64) *childResult {
	return &childResult{Attempted: attempted, Metrics: map[string]float64{}, Layer: map[string]float64{}}
}

// fail counts n operations as failed and keeps the first few reasons.
func (r *childResult) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	if r.Failed += n; r.Failed > r.Attempted {
		r.Failed = r.Attempted // several checks may count the same operation
	}
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// failAll counts every attempted operation as failed: the outcome the paper
// mandates for this workload did not hold, so no frame of it counts.
func (r *childResult) failAll(format string, args ...any) {
	r.Failed = 0
	r.fail(r.Attempted, format, args...)
}

// runOptions are one child's inputs.
type runOptions struct {
	seed  int64
	units int

	// mode is the victim's tracker mode; zero is the default. Only the
	// self-tests set it, to hand a workload a wrong victim.
	mode core.Mode

	// deadline bounds every wait inside the workload. The parent also
	// enforces a hard per-child deadline from outside.
	deadline time.Time
}

// window is one measured window.
type window struct {
	setup time.Duration // process start to first byte written
	d     delta
	msgs  int64 // frames the victim consumed
	bytes int64 // the same in wire bytes
}

// begin takes the start-of-window reading. Everything before it is set-up.
// A collection first, so that every repeat starts from a clean heap.
func beginWindow() (counters, time.Duration) {
	runtime.GC()
	c := readCounters()
	return c, c.wall.Sub(processStart)
}

// record writes the window's end-to-end and runtime metrics into res.
func (w window) record(res *childResult) {
	secs := w.d.wall.Seconds()
	msgs := float64(w.msgs)
	res.Metrics["setup_s"] = w.setup.Seconds()
	res.Metrics["absorb_msgs_per_s"] = msgs / secs
	res.Metrics["absorb_mb_per_s"] = float64(w.bytes) / 1e6 / secs
	res.Metrics["cpu_ns_per_msg"] = float64(w.d.cpu.Nanoseconds()) / msgs
	res.Metrics["allocs_per_msg"] = float64(w.d.mallocs) / msgs
	res.Metrics["alloc_bytes_per_msg"] = float64(w.d.bytes) / msgs
	res.Layer["runtime.gc_cpu_share"] = w.d.gcCPU / w.d.cpu.Seconds()
	res.Layer["runtime.gc_cycles"] = float64(w.d.gcCycles)
}

// workloadFuncs maps a workload to the function that runs it once, against a
// fresh victim, for the given options.
var workloadFuncs = map[string]func(runOptions) (*childResult, error){
	"ping_flood":           runPingFlood,
	"bogus_block_flood":    runBogusBlockFlood,
	"sybil_swarm":          runSybilSwarm,
	"serial_sybil_durable": runSerialSybil,
	"honest_relay":         runHonestRelay,
}

// runWorkload is the body of a child: warm up against a throw-away victim
// with a tenth of the load (which fills the wire buffer pools and faults in
// the heap: the first cold swarm run was 1.07M msgs/s against 1.47M warm),
// then measure, then check that nothing leaked.
func runWorkload(name string, o runOptions) (*childResult, error) {
	fn, ok := workloadFuncs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	spec, _ := findWorkload(name)
	baseline := runtime.NumGoroutine()

	warm := o
	warm.units = o.units / 10
	if warm.units < spec.minUnits/2 {
		warm.units = spec.minUnits / 2
	}
	if _, err := fn(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// The warm-up victim's heap is garbage now; return it so the measured
	// victim's peak RSS is its own.
	debug.FreeOSMemory()

	res, err := fn(o)
	if err != nil {
		return nil, err
	}
	res.Workload, res.Seed, res.Units = name, o.seed, o.units
	if n, ok := settleGoroutines(baseline, 3*time.Second); !ok {
		res.failAll("leak: %d goroutines after Node.Stop, %d before the victim was built", n, baseline)
	}
	if left := leftoverTempDirs(); len(left) > 0 {
		res.failAll("leak: temporary directories left behind: %v", left)
	}
	return res, nil
}

// settleGoroutines waits for the goroutine count to return to the baseline.
func settleGoroutines(baseline int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leftoverTempDirs lists the benchmark's temporary directories that still
// exist under the temp root.
func leftoverTempDirs() []string {
	entries, err := os.ReadDir(os.TempDir())
	if err != nil {
		return nil
	}
	var left []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), tempPrefix) {
			left = append(left, e.Name())
		}
	}
	return left
}

// tempPrefix names every temporary directory the benchmark creates; the
// process id keeps concurrent children (the self-tests) apart.
var tempPrefix = fmt.Sprintf("banbench-%d-", os.Getpid())

// childMain runs one workload and prints its result.
func childMain(name string, o runOptions) int {
	res, err := runWorkload(name, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "banbench child %s: %v\n", name, err)
		return 1
	}
	return printResult(res)
}

// printResult writes a child's result as the last line of its output.
func printResult(res *childResult) int {
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "banbench %s: %v\n", res.Workload, err)
		return 1
	}
	return 0
}
