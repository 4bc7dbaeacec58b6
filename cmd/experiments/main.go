// Command experiments regenerates the tables and figures of the paper's
// evaluation and prints them in paper order.
//
// Usage:
//
//	experiments [-scale quick|paper] [-only NAME] [-json results.json]
//	            [-loss 0.1] [-latency 5ms] [-jitter 2ms] [-fault-seed 1]
//	            [-trace-out trace.json] [-trace-sample 64] [-bans-out bans.json]
//
// Without -only the run is experiments.Suite: every registry entry marked
// InSuite, in paper order under one header. -only runs one entry of the
// registry (internal/experiments/registry.go) by name, including the
// scenarios the suite leaves out: the restart ban-durability matrix, the
// real multi-process btcnode fleet on loopback TCP, and the 10k/100k-identity
// Sybil swarm on the event-loop engine.
//
// -json writes {name: result} for every experiment the run executed, from
// the same run that printed them.
//
// The fault flags degrade the simulation fabric every experiment runs on —
// probabilistic payload loss, one-way latency, and jitter, all deterministic
// under -fault-seed — so any table or figure can be regenerated under the
// network conditions a real adversary (or a bad route) would impose.
//
// -trace-out threads the message-lifecycle tracer through every testbed the
// run builds and writes the sampled spans as a Chrome trace-event JSON file
// (open in chrome://tracing or Perfetto) when the run finishes — e.g. the
// wire-to-ban timeline behind a Table II row or a Fig. 8 serial-identifier
// sweep. -bans-out writes the forensic ban ledger (every rule application,
// per attacker identity, in order) as JSON. Both files are written after
// any run; an experiment that builds no testbed leaves them empty.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"banscore/internal/core"
	"banscore/internal/experiments"
	"banscore/internal/simnet"
	"banscore/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick or paper")
	only := fs.String("only", "", "run one experiment of the registry by name instead of the suite")
	jsonOut := fs.String("json", "", "write {name: result} for every experiment run as JSON to this file")
	loss := fs.Float64("loss", 0, "fabric payload drop probability in [0,1]")
	latency := fs.Duration("latency", 0, "fabric one-way latency")
	jitter := fs.Duration("jitter", 0, "fabric per-payload jitter bound")
	faultSeed := fs.Int64("fault-seed", 0, "fault plan RNG seed (0 selects a fixed default)")
	traceOut := fs.String("trace-out", "", "write sampled lifecycle spans as Chrome trace-event JSON to this file (empty if no testbed was built)")
	traceSample := fs.Int("trace-sample", trace.DefaultSampleN, "trace 1 in N messages (rounded up to a power of two; 1 traces everything)")
	bansOut := fs.String("bans-out", "", "write the forensic ban ledger as JSON to this file (empty if no testbed was built)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleFlag)
	}
	exp, found := experiments.Lookup(*only)
	if *only != "" && !found {
		return fmt.Errorf("unknown experiment %q", *only)
	}

	if *loss < 0 || *loss > 1 {
		return fmt.Errorf("-loss %v outside [0,1]", *loss)
	}
	if *loss > 0 || *latency > 0 || *jitter > 0 {
		scale.Faults = &simnet.FaultPlan{
			DropRate: *loss,
			Latency:  *latency,
			Jitter:   *jitter,
			Seed:     *faultSeed,
		}
		fmt.Fprintf(stdout, "fabric faults: loss=%.0f%% latency=%s jitter=%s seed=%d\n\n",
			*loss*100, *latency, *jitter, *faultSeed)
	}

	var tracer *trace.Tracer
	var ledger *core.Ledger
	if *traceOut != "" || *bansOut != "" {
		tracer = trace.New(trace.Config{SampleN: *traceSample})
		tracer.Enable()
		ledger = core.NewLedger(0, 0)
		scale.Tracer = tracer
		scale.Forensics = ledger
	}

	results := map[string]experiments.Result{}
	var runErr error
	if !found {
		results, runErr = experiments.Suite(scale, stdout)
	} else if r, err := exp.Run(scale); err != nil {
		runErr = fmt.Errorf("%s: %w", exp.Name, err)
	} else {
		fmt.Fprint(stdout, r.Render())
		results[exp.Name] = r
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, results); err != nil {
			return fmt.Errorf("json: %w", err)
		}
	}
	if *traceOut != "" {
		if err := writeTraceArtifact(*traceOut, tracer); err != nil {
			return err
		}
		total, dropped, sampled := tracer.Stats()
		fmt.Fprintf(stdout, "\nwrote %s (spans=%d dropped=%d sampled-messages=%d)\n", *traceOut, total, dropped, sampled)
	}
	if *bansOut != "" {
		doc := make(map[string][]core.BanRecord)
		for _, id := range ledger.Peers() {
			doc[string(id)] = ledger.Records(id)
		}
		if err := writeJSON(*bansOut, doc); err != nil {
			return fmt.Errorf("bans-out: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s (peers=%d records=%d)\n", *bansOut, len(ledger.Peers()), ledger.Total())
	}
	return runErr
}

// writeTraceArtifact dumps the tracer's span ring as a Chrome trace-event
// JSON file.
func writeTraceArtifact(path string, t *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	defer f.Close()
	if err := trace.WriteChrome(f, t.Spans()); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return f.Close()
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
