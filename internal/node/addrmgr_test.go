package node

import "testing"

func TestAddrManagerAddDeduplicates(t *testing.T) {
	a := NewAddrManager(1)
	if !a.Add("10.0.0.1:8333") {
		t.Error("first add rejected")
	}
	if a.Add("10.0.0.1:8333") {
		t.Error("duplicate add accepted")
	}
	if a.Count() != 1 {
		t.Errorf("Count = %d", a.Count())
	}
}

// addAll inserts each address in turn.
func addAll(a *AddrManager, addrs ...string) {
	for _, addr := range addrs {
		a.Add(addr)
	}
}

func TestAddrManagerAddMany(t *testing.T) {
	a := NewAddrManager(1)
	addAll(a, "a:1", "b:2", "a:1", "c:3")
	if a.Count() != 3 {
		t.Errorf("Count = %d, want 3", a.Count())
	}
	all := a.All()
	if len(all) != 3 {
		t.Fatalf("All = %v", all)
	}
	// All returns a copy, not a view.
	all[0] = "mutated"
	if a.All()[0] == "mutated" {
		t.Error("All aliases internal storage")
	}
}

func TestAddrManagerPick(t *testing.T) {
	a := NewAddrManager(42)
	if got := a.Pick(nil); got != "" {
		t.Errorf("Pick on empty = %q", got)
	}
	addAll(a, "a:1", "b:2", "c:3")

	// Unfiltered pick returns something known.
	picked := a.Pick(nil)
	found := false
	for _, addr := range a.All() {
		if addr == picked {
			found = true
		}
	}
	if !found {
		t.Errorf("Pick returned unknown address %q", picked)
	}

	// Exclusion is honored.
	got := a.Pick(func(addr string) bool { return addr != "b:2" })
	if got != "b:2" {
		t.Errorf("filtered Pick = %q, want b:2", got)
	}

	// Fully excluded set yields "".
	if got := a.Pick(func(string) bool { return true }); got != "" {
		t.Errorf("fully-excluded Pick = %q", got)
	}
}

func TestAddrManagerPickCoversAll(t *testing.T) {
	a := NewAddrManager(7)
	addAll(a, "a:1", "b:2", "c:3", "d:4")
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		seen[a.Pick(nil)] = true
	}
	if len(seen) != 4 {
		t.Errorf("200 picks covered %d of 4 addresses", len(seen))
	}
}
