package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"banscore/internal/stats"
)

// childDeadline is the hard limit on one child process, enforced from
// outside. A child that runs into it is killed and all its operations count
// as failed; it is not retried. A child takes a third of the budget plus a
// few seconds; the limit is sized so that even three lost children end
// inside the driver's own 180 s.
func childDeadline(seconds float64) time.Duration {
	return 20*time.Second + time.Duration(3*seconds*float64(time.Second))
}

// spawnChild runs one fresh child process of this binary and returns its
// result. A child that crashes, is killed at the deadline, or prints no
// result yields a result in which every planned operation failed.
func spawnChild(kind, workload string, seed int64, units int, limit time.Duration, extra ...string) *childResult {
	planned := int64(units)
	lost := func(format string, args ...any) *childResult {
		r := newResult(planned)
		r.Workload, r.Seed, r.Units = workload, seed, units
		r.failAll(format, args...)
		return r
	}
	exe, err := os.Executable()
	if err != nil {
		return lost("locate benchmark binary: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	args := append([]string{kind,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-units", strconv.Itoa(units),
		"-deadline", strconv.FormatFloat(limit.Seconds()*0.9, 'f', 1, 64),
	}, extra...)
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err = cmd.Run()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return lost("child killed at its %s deadline", limit)
	}
	if err != nil {
		return lost("child failed: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	res := &childResult{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return lost("child printed no result: %v", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok && res.Metrics != nil {
		res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res
}

// summary is one metric over a run's children.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(values []float64, unit string) summary {
	return summary{Median: median(values), Min: stats.Min(values), Max: stats.Max(values), N: len(values), Unit: unit}
}

// workloadResult is one workload's end-to-end result: every metric as the
// median over the fresh child processes, with min, max and count beside it.
// A metric the workload does not have is absent (null in the printed table).
type workloadResult struct {
	Workload  string             `json:"workload"`
	Units     int                `json:"units"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// measureWorkload runs the workload n times, each in a fresh child.
func measureWorkload(w workloadSpec, seed int64, seconds float64, n int) workloadResult {
	units := w.units(seconds)
	out := workloadResult{Workload: w.name, Units: units, Metrics: map[string]summary{}}
	values := map[string][]float64{}
	layers := map[string][]float64{}
	for r := 0; r < n; r++ {
		res := spawnChild("child", w.name, seed, units, childDeadline(seconds))
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		out.Failures = append(out.Failures, res.Failures...)
		if res.Failed == res.Attempted {
			continue // a lost child has no measurements
		}
		for name, v := range res.Metrics {
			values[name] = append(values[name], v)
		}
		for name, v := range res.Layer {
			layers[name] = append(layers[name], v)
		}
	}
	for _, m := range allEndToEnd() {
		if v := values[m.name]; len(v) > 0 {
			out.Metrics[m.name] = summarize(v, m.unit)
		}
	}
	share := 0.0
	if out.Attempted > 0 {
		share = float64(out.Failed) / float64(out.Attempted)
	}
	out.Metrics["failed_share"] = summary{Median: share, Min: share, Max: share, N: n, Unit: "share"}
	out.Layer = map[string]float64{}
	for name, v := range layers {
		out.Layer[name] = median(v)
	}
	return out
}

// driverLine is the one JSON object the driver reads off the last line.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printDriverLine(line driverLine) error {
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
