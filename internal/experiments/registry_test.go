package experiments

import (
	"slices"
	"testing"
)

// TestSuiteRunsThePaperInOrder pins the suite to the paper's evaluation
// order; nothing here runs an experiment.
func TestSuiteRunsThePaperInOrder(t *testing.T) {
	var suite []string
	for _, e := range Experiments() {
		if e.InSuite {
			suite = append(suite, e.Name)
		}
	}
	want := []string{"table1", "table2", "fig6", "table3", "fig7", "fig8", "fig10", "fig11", "countermeasures", "reputation"}
	if !slices.Equal(suite, want) {
		t.Errorf("suite order %v, want %v", suite, want)
	}
}

// TestRegistryNamesAreUniqueAndFound holds every entry reachable by name,
// which is how cmd/experiments -only selects it.
func TestRegistryNamesAreUniqueAndFound(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range Experiments() {
		if e.Name == "" || e.Run == nil {
			t.Errorf("entry %d: name %q, run %v", i, e.Name, e.Run != nil)
		}
		if seen[e.Name] {
			t.Errorf("%q registered twice", e.Name)
		}
		seen[e.Name] = true
		if got, ok := Lookup(e.Name); !ok || got.Name != e.Name || got.InSuite != e.InSuite {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Name, ok)
		}
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Error(`Lookup("nonesuch") found an experiment`)
	}
}
