package traffic

import (
	"math"
	"testing"
	"time"

	"banscore/internal/wire"
)

var t0 = time.Unix(1700000000, 0)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(42).Events(t0, 10*time.Minute)
	b := NewGenerator(42).Events(t0, 10*time.Minute)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorRateApproximatesTarget(t *testing.T) {
	events := NewGenerator(7).Events(t0, time.Hour)
	perMinute := float64(len(events)) / 60
	if perMinute < 280 || perMinute > 360 {
		t.Errorf("rate = %.1f msg/min, want ≈ 320", perMinute)
	}
}

func TestGeneratorEventsOrderedWithinSpan(t *testing.T) {
	events := NewGenerator(1).Events(t0, 10*time.Minute)
	if len(events) == 0 {
		t.Fatal("no events")
	}
	for i, ev := range events {
		if ev.At.Before(t0) || !ev.At.Before(t0.Add(10*time.Minute)) {
			t.Fatalf("event %d at %v out of span", i, ev.At)
		}
		if i > 0 && ev.At.Before(events[i-1].At) {
			t.Fatalf("event %d out of order", i)
		}
	}
}

func TestGeneratorMixFollowsProfile(t *testing.T) {
	events := NewGenerator(99).Events(t0, 2*time.Hour)
	counts := make(map[string]float64)
	for _, ev := range events {
		counts[ev.Cmd]++
	}
	total := float64(len(events))
	// TX should dominate per the normal-case profile.
	txFrac := counts[wire.CmdTx] / total
	if math.Abs(txFrac-0.46) > 0.05 {
		t.Errorf("tx fraction = %.3f, want ≈ 0.46", txFrac)
	}
	if counts[wire.CmdTx] <= counts[wire.CmdPing] {
		t.Error("TX should dominate PING in normal traffic")
	}
}

func TestOverlayMergesSorted(t *testing.T) {
	a := []Event{{Cmd: "a", At: t0}, {Cmd: "a", At: t0.Add(2 * time.Second)}}
	b := []Event{{Cmd: "b", At: t0.Add(time.Second)}, {Cmd: "b", At: t0.Add(3 * time.Second)}}
	merged := Overlay(a, b)
	if len(merged) != 4 {
		t.Fatalf("merged length = %d", len(merged))
	}
	want := []string{"a", "b", "a", "b"}
	for i, ev := range merged {
		if ev.Cmd != want[i] {
			t.Errorf("merged[%d] = %q, want %q", i, ev.Cmd, want[i])
		}
	}
}

func TestFloodEvents(t *testing.T) {
	events := FloodEvents(wire.CmdPing, t0, time.Minute, 600)
	if len(events) != 600 {
		t.Errorf("flood events = %d, want 600", len(events))
	}
	for _, ev := range events {
		if ev.Cmd != wire.CmdPing {
			t.Fatal("wrong command")
		}
	}
	if FloodEvents(wire.CmdPing, t0, time.Minute, 0) != nil {
		t.Error("zero rate should yield nil")
	}
}

func TestDefamationEvents(t *testing.T) {
	events, reconnects := DefamationEvents(t0, 10*time.Minute, 5.3)
	if len(reconnects) == 0 {
		t.Fatal("no reconnects")
	}
	perMinute := float64(len(reconnects)) / 10
	if math.Abs(perMinute-5.3) > 0.5 {
		t.Errorf("reconnect rate = %.2f/min, want ≈ 5.3", perMinute)
	}
	// Each reconnect yields a VERSION and a VERACK event.
	if len(events) != 2*len(reconnects) {
		t.Errorf("events = %d, want %d", len(events), 2*len(reconnects))
	}
	ev, rec := DefamationEvents(t0, time.Minute, 0)
	if ev != nil || rec != nil {
		t.Error("zero rate should yield nil")
	}
}
