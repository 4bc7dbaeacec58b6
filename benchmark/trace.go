package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// traceResult is one workload's traced run: every per-layer metric, the
// ledger that reconciles the layers with the end-to-end CPU cost, and the
// failure count of the end-to-end child the run contains.
type traceResult struct {
	Workload  string
	Attempted int64
	Failed    int64
	Failures  []string
	Layer     map[string]float64
	Ledger    []ledgerRow
	TraceFile string
}

// ledgerRow is one layer's self time on the workload's path, per absorbed
// message.
type ledgerRow struct {
	Layer string
	Self  float64 // ns of process CPU per absorbed message
}

// traceWorkload makes the traced run of one workload. It has two children:
// an untraced end-to-end child at a third of the budget, whose
// cpu_ns_per_msg is the total the ledger reconciles against and which reads
// the per-layer values that exist only inside a live run; and a probe child,
// which times each layer from outside and writes the trace file into dir.
// End-to-end metrics are never taken from here.
func traceWorkload(w workloadSpec, seed int64, seconds float64, dir string) traceResult {
	tr := traceResult{Workload: w.name, Layer: map[string]float64{}}
	units := w.units(seconds)

	live := spawnChild("child", w.name, seed, units, childDeadline(seconds))
	tr.Attempted, tr.Failed, tr.Failures = live.Attempted, live.Failed, live.Failures
	for name, v := range live.Layer {
		tr.Layer[name] = v
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		tr.Failed = tr.Attempted
		tr.Failures = append(tr.Failures, fmt.Sprintf("trace directory: %v", err))
		return tr
	}
	probes := spawnChild("probe", w.name, seed, units, childDeadline(seconds), "-out", dir)
	if probes.Failed > 0 {
		// The probes are part of the run: without them it measured nothing.
		tr.Failed = tr.Attempted
		tr.Failures = append(tr.Failures, probes.Failures...)
		return tr
	}
	for name, v := range probes.Layer {
		tr.Layer[name] = v
	}
	tr.TraceFile = fmt.Sprintf("%s/trace-%s.json", dir, w.name)

	tr.Layer["ledger.total_ns_per_msg"] = live.Metrics["cpu_ns_per_msg"]
	tr.Ledger = ledger(w.name, tr.Layer)
	explained := 0.0
	for _, row := range tr.Ledger {
		explained += row.Self
	}
	tr.Layer["ledger.explained_ns_per_msg"] = explained
	if total := live.Metrics["cpu_ns_per_msg"]; total > 0 {
		tr.Layer["ledger.residue_share"] = (total - explained) / total
	}
	return tr
}

// ledger sums the self times of the layers on the workload's path, each
// converted to ns per absorbed message: per-reply costs by the replies the
// victim sends per message, per-connection costs by the messages a
// connection carries. What the sum leaves of the end-to-end cpu_ns_per_msg is
// the residue — scheduler hand-offs, GC, cond-var wakes, the generator's own
// reply parsing — which is printed, not hidden, and not gated.
func ledger(workload string, l map[string]float64) []ledgerRow {
	replies := l["probe.replies_per_msg"]
	if workload == "ping_flood" {
		replies = l["node.reply_share"] // replies shed at a full queue cost no reply path
	}
	perConn := 0.0
	if c := l["probe.msgs_per_conn"]; c > 0 {
		perConn = 1 / c
	}
	us := 1e3
	// Connections are dialled inside the window only on serial_sybil_durable
	// (the swarm admits its identities during set-up).
	dials := 0.0
	if workload == "serial_sybil_durable" {
		dials = perConn
	}

	pump := l["peer.pump_ns_per_msg"] + replies*l["peer.queue_ns_per_msg"] + dials*us*l["peer.start_stop_us"]
	pumpName := "peer"
	if workload == "sybil_swarm" {
		pump, pumpName = l["swarm.pump_ns_per_msg"], "swarm"
	}
	score := l["core.score_ns_per_op"]
	if workload == "sybil_swarm" {
		score = l["core.batch_ns_per_op"]
	}
	// What dispatch holds of other layers' work, to leave node its own.
	inDispatch := 0.0
	if workload == "sybil_swarm" || workload == "serial_sybil_durable" {
		inDispatch = score
	}
	mempoolWork := 0.0
	if workload == "honest_relay" {
		mempoolWork = 0.52*l["mempool.accept_ns_per_tx"] + 0.27*2*l["mempool.have_ns"]
		inDispatch = mempoolWork
	}
	rows := []ledgerRow{
		// The pipe as it is used here, feeding a decoder (the pumps are
		// stacks over exactly that); simnet.pipe_ns_per_msg is the same
		// stream with a reader that does nothing, which keeps pace
		// differently and so is not what the stacks contain.
		{"simnet", l["probe.pipe_under_decode_ns"] + dials*us*l["simnet.dial_accept_us"]},
		{"wire", l["wire.decode_ns_per_msg"] + replies*l["wire.encode_ns_per_msg"]},
		{pumpName, pump},
		{"node", l["node.dispatch_ns_per_msg"] - inDispatch},
		// core.ledger_append_ns is not added: it is inside core.score, the
		// tracker appends under its shard lock.
		{"core", score + perConn*(l["core.forget_ns_per_op"]+l["core.banlist_lookup_ns"])},
		{"mempool", mempoolWork},
		{"telemetry", l["telemetry.dispatch_overhead_ns"]},
		{"trace", l["trace.dispatch_overhead_ns"]},
		{"detect", l["detect.on_message_ns"]},
		// Idle (0) everywhere but serial_sybil_durable, where every hit is
		// mirrored into reputation and the WAL.
		{"reputation", l["reputation.penalize_ns_per_op"] + perConn*l["reputation.admission_ns_per_op"]},
		{"banstore", l["banstore.append_ns_per_rec"]},
		// The probes' figures leave the collector out; end to end it is
		// this share of the total.
		{"runtime.gc", l["runtime.gc_cpu_share"] * l["ledger.total_ns_per_msg"]},
	}
	kept := rows[:0]
	for _, r := range rows {
		if r.Self != 0 {
			kept = append(kept, r)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Self > kept[j].Self })
	return kept
}

func (tr traceResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — traced run\n", tr.Workload)
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %16.4f  %s\n", m.name, tr.Layer[m.name], m.unit)
	}
	total := tr.Layer["ledger.total_ns_per_msg"]
	fmt.Fprintf(w, "  ledger: self time per absorbed message, against the untraced cpu_ns_per_msg of %.1f ns\n", total)
	for _, row := range tr.Ledger {
		fmt.Fprintf(w, "    %-12s %12.1f ns  (%.1f%% of %.1f ns)\n", row.Layer, row.Self, 100*row.Self/total, total)
	}
	fmt.Fprintf(w, "    %-12s %12.1f ns  (%.1f%% of %.1f ns)\n", "residue",
		total-tr.Layer["ledger.explained_ns_per_msg"], 100*tr.Layer["ledger.residue_share"], total)
	if tr.TraceFile != "" {
		fmt.Fprintf(w, "  spans: %s\n", tr.TraceFile)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d\n", tr.Attempted, tr.Failed)
	for _, f := range tr.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// traceMain is `trace`: the traced run of every selected workload.
func traceMain(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	name := fs.String("workload", "all", "workload to trace, or all")
	out := fs.String("out", ".", "directory for the trace-<workload>.json files")
	smoke := fs.Bool("smoke", false, "run at about 1/200 scale (names and checks only; timings mean nothing)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected, err := selectWorkloads(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark trace: %v\n", err)
		return 2
	}
	seconds := float64(runSeconds)
	if *smoke {
		seconds = smokeSeconds
	}
	newMeta(*seed, seconds).print(os.Stdout)
	failed := int64(0)
	for _, w := range selected {
		tr := traceWorkload(w, *seed, seconds, *out)
		tr.print(os.Stdout)
		failed += tr.Failed
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark trace: %d operations failed\n", failed)
		return 1
	}
	return 0
}
