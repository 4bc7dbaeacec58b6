package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"banscore/internal/experiments"
)

// TestOnlyWritesThePrintedResult runs one experiment with -json: stdout is
// its rendering and nothing else, and the artifact holds the same result
// under the experiment's name.
func TestOnlyWritesThePrintedResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	var stdout bytes.Buffer
	if err := run([]string{"-only", "table1", "-json", path}, &stdout); err != nil {
		t.Fatal(err)
	}
	want := experiments.Table1()
	if got := stdout.String(); got != want.Render() {
		t.Errorf("stdout:\n%s\nwant Table1().Render():\n%s", got, want.Render())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]experiments.Table1Result
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc) != 1 {
		t.Errorf("artifact has %d entries, want only table1", len(doc))
	}
	got := doc["table1"].Rules
	if len(got) != len(want.Rules) {
		t.Fatalf("artifact has %d rules, Table I has %d", len(got), len(want.Rules))
	}
	for i, r := range want.Rules {
		if got[i].Name != r.Name || got[i].Misbehavior != r.Misbehavior {
			t.Errorf("rule %d: artifact has %s %q, want %s %q", i, got[i].Name, got[i].Misbehavior, r.Name, r.Misbehavior)
		}
	}
}
