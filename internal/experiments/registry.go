package experiments

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"banscore/internal/fleet"
)

// Result is what every experiment returns: rows or series that render in
// the paper's shape and encode as JSON.
type Result interface{ Render() string }

// Experiment is one entry of the registry. Name is what cmd/experiments
// -only selects and the key of its -json artifact; InSuite says whether
// Suite runs it.
type Experiment struct {
	Name    string
	InSuite bool
	Run     func(Scale) (Result, error)
}

// registry is the one list of experiments: the paper's evaluation in paper
// order, then the scenarios Suite leaves out because they outgrow one
// in-process testbed.
var registry = []Experiment{
	{"table1", true, func(Scale) (Result, error) { return Table1(), nil }},
	{"table2", true, result(Table2)},
	{"fig6", true, result(Figure6)},
	{"table3", true, result(Table3)},
	{"fig7", true, result(Figure7)},
	{"fig8", true, result(Figure8)},
	{"fig10", true, result(Figure10)},
	{"fig11", true, result(Figure11)},
	{"countermeasures", true, result(Countermeasures)},
	{"reputation", true, result(ReputationComparison)},
	{"restart", false, result(restart)},
	{"fleet", false, result(fleetPropagation)},
	{"swarm", false, result(swarmScale)},
}

// result adapts an experiment function to Experiment.Run.
func result[R Result](run func(Scale) (R, error)) func(Scale) (Result, error) {
	return func(s Scale) (Result, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

// Experiments returns the registry in order.
func Experiments() []Experiment { return slices.Clone(registry) }

// Lookup returns the experiment called name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Suite runs every experiment in the suite at the given scale, writes the
// header and each rendering to w in paper order, and returns the results
// by experiment name.
func Suite(scale Scale, w io.Writer) (map[string]Result, error) {
	fmt.Fprintf(w, "Ban-score reproduction experiment suite (scale: %s)\n%s\n\n", scale.Name, strings.Repeat("=", 72))
	results := make(map[string]Result)
	for _, e := range registry {
		if !e.InSuite {
			continue
		}
		if len(results) > 0 {
			fmt.Fprintln(w)
		}
		r, err := e.Run(scale)
		if err != nil {
			return results, fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprint(w, r.Render())
		results[e.Name] = r
	}
	return results, nil
}

// restart runs the ban-durability matrix against a throwaway store
// directory.
func restart(scale Scale) (RestartComparisonResult, error) {
	dir, err := os.MkdirTemp("", "banstore-restart-*")
	if err != nil {
		return RestartComparisonResult{}, err
	}
	defer os.RemoveAll(dir)
	return RestartComparison(scale, dir)
}

// fleetPropagation replays Defamation and the Sybil loop against real
// btcnode processes on loopback TCP: 3 nodes and 2 Sybil identities at
// quick scale, 5 and 4 at paper scale.
func fleetPropagation(scale Scale) (fleet.ExperimentResult, error) {
	cfg := fleet.ExperimentConfig{Cluster: fleet.Config{Nodes: 3}, SybilIdentities: 2}
	if scale.Name == "paper" {
		cfg.Cluster.Nodes, cfg.SybilIdentities = 5, 4
	}
	return fleet.RunExperiment(cfg)
}

// swarmScale runs the Sybil-swarm scenario on the event-loop engine: 10k
// identities at quick scale, 100k at paper scale.
func swarmScale(scale Scale) (SwarmResult, error) {
	cfg := SwarmConfig{Attackers: 10000, ChurnEvery: 7}
	if scale.Name == "paper" {
		cfg.Attackers = 100000
	}
	return Swarm(cfg)
}
