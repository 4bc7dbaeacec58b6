package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// resultSet is what `run` writes and `check` reads: every workload's
// end-to-end metrics plus the conditions they were measured under.
type resultSet struct {
	Meta      meta             `json:"meta"`
	Workloads []workloadResult `json:"workloads"`
}

type meta struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Repeats    int     `json:"repeats"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Fabric     string  `json:"fabric"`
}

func newMeta(seed int64, seconds float64) meta {
	return meta{
		Seed: seed, Seconds: seconds, Repeats: repeats, Commit: commit(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Fabric: fabricNote,
	}
}

// commit is the revision the binary was built from, when the toolchain
// stamped one (it does not in a checkout that is not a git repository).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (m meta) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, %.1f s budget in %d fresh processes per workload, commit %s, nproc %d, GOMAXPROCS %d, %s\n%s\n",
		m.Seed, m.Seconds, m.Repeats, m.Commit, m.NProc, m.GOMAXPROCS, m.GoVersion, m.Fabric)
}

// smokeSeconds scales every workload to about 1/200 of a full run; the
// per-workload minimum counts then apply.
const smokeSeconds = runSeconds / 200.0

// selectWorkloads resolves -workload ("" or "all" selects every workload).
func selectWorkloads(name string) ([]workloadSpec, error) {
	if name == "" || name == "all" {
		return workloadSpecs, nil
	}
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	return []workloadSpec{w}, nil
}

// runMain is `run`: every selected workload end to end, a table of all ten
// end-to-end metrics, and optionally the result set as JSON.
func runMain(args []string) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	name := fs.String("workload", "all", "workload to run, or all")
	out := fs.String("out", "", "write the result set to this file")
	smoke := fs.Bool("smoke", false, "run at about 1/200 scale (checks only; timings mean nothing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark run: %v\n", err)
		return 2
	}
	seconds := float64(runSeconds)
	if *smoke {
		seconds = smokeSeconds
	}
	set := resultSet{Meta: newMeta(*seed, seconds)}
	set.Meta.print(os.Stdout)
	failed := int64(0)
	for _, w := range selected {
		res := measureWorkload(w, *seed, seconds, repeats)
		set.Workloads = append(set.Workloads, res)
		printWorkload(os.Stdout, w, res)
		failed += res.Failed
	}
	if *out != "" {
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark run: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark run: %d operations failed\n", failed)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printWorkload prints one workload's ten end-to-end metrics, null where the
// workload does not have one.
func printWorkload(w io.Writer, spec workloadSpec, res workloadResult) {
	fmt.Fprintf(w, "\n%s — %d %s per process\n", spec.name, res.Units, spec.unit)
	fmt.Fprintf(w, "  %-22s %14s %14s %14s  %s\n", "metric", "median", "min", "max", "n  unit")
	for _, m := range allEndToEnd() {
		s, ok := res.Metrics[m.name]
		if !ok {
			fmt.Fprintf(w, "  %-22s %14s\n", m.name, "null")
			continue
		}
		fmt.Fprintf(w, "  %-22s %14.4f %14.4f %14.4f  %d  %s\n", m.name, s.Median, s.Min, s.Max, s.N, s.Unit)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if len(res.Layer) > 0 {
		var parts []string
		for _, m := range perLayer {
			if v, ok := res.Layer[m.name]; ok {
				parts = append(parts, fmt.Sprintf("%s %.4g %s", m.name, v, m.unit))
			}
		}
		fmt.Fprintf(w, "  read inside the run: %s\n", strings.Join(parts, "; "))
	}
}
