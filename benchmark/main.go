// Command benchmark is the repository's end-to-end benchmark: it drives a
// live victim node over the in-memory simnet fabric through five
// seed-generated workloads (two score-free floods, two Sybil shapes, one
// honest mix), checks the outcome the paper mandates for each, and reports
// every metric by name with its unit. A separate traced run times calls into
// each layer's public functions from outside and reconciles their sum with
// the end-to-end CPU cost. See README.md in this directory.
//
//	go run -C benchmark . run   [-seed N] [-workload W] [-out results.json] [-smoke]
//	go run -C benchmark . trace [-seed N] [-workload W] [-out DIR] [-smoke]
//	go run -C benchmark . check A.json B.json
//
// The driver named in BENCHMARK.json calls it through run.sh as
// `--workload W --seed N --seconds S --trace 0|1`: one workload per call,
// one JSON object on the last line of standard output.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	os.Exit(dispatch(os.Args[1:]))
}

func dispatch(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "run":
			return runMain(args[1:])
		case "trace":
			return traceMain(args[1:])
		case "check":
			return checkMain(args[1:])
		case "child", "probe":
			return childProcess(args[0], args[1:])
		}
	}
	return driverMain(args)
}

// childProcess is the entry point of a fresh child: one workload measured
// end to end ("child") or one workload's layer probes ("probe").
func childProcess(kind string, args []string) int {
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	units := fs.Int("units", 0, "fixed count of work units")
	deadline := fs.Float64("deadline", 120, "seconds after which every wait inside the workload gives up")
	out := fs.String("out", ".", "directory for the trace file (probe)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := runOptions{seed: *seed, units: *units, deadline: processStart.Add(time.Duration(*deadline * float64(time.Second)))}
	if kind == "probe" {
		return probeMain(*workload, o, *out)
	}
	return childMain(*workload, o)
}

// driverMain serves one driver call: one workload, end to end (--trace 0)
// or layer by layer (--trace 1).
func driverMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "measuring budget, split over the run's child processes")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s, seed %d, %.0f s budget; %s\n", w.name, *seed, *seconds, fabricNote)

	line := driverLine{Metrics: map[string]driverValue{}}
	if *traced == 1 {
		tr := traceWorkload(w, *seed, *seconds, ".bench_build")
		line.Attempted, line.Failed = tr.Attempted, tr.Failed
		for _, m := range perLayer {
			line.Metrics[m.name] = driverValue{Value: tr.Layer[m.name], Unit: m.unit}
		}
		reportFailures(tr.Failures)
	} else {
		res := measureWorkload(w, *seed, *seconds, repeats)
		line.Attempted, line.Failed = res.Attempted, res.Failed
		for _, m := range endToEnd {
			s, ok := res.Metrics[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "benchmark: %s produced no %s\n", w.name, m.name)
				return 1
			}
			line.Metrics[m.name] = driverValue{Value: s.Median, Unit: m.unit}
		}
		reportFailures(res.Failures)
	}
	line.Correct = line.Failed == 0
	if err := printDriverLine(line); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func reportFailures(failures []string) {
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "benchmark: FAILED: %s\n", f)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.name
	}
	return names
}
