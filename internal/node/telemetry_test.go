package node

import (
	"testing"

	"banscore/internal/core"
	"banscore/internal/telemetry"
)

// TestForensicsLossCountersOnMetrics wraps a 1-peer, 2-record ledger — one
// trimmed record, one evicted peer — and requires the loss to show as
// registry series, not only inside the /debug/bans document.
func TestForensicsLossCountersOnMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	n := New(Config{Telemetry: reg, Forensics: core.NewLedger(1, 2)})
	defer n.Stop()
	for _, id := range []core.PeerID{"10.0.0.2:1", "10.0.0.2:1", "10.0.0.2:1", "10.0.0.3:1"} {
		n.Tracker().MisbehavingCtx(id, true, core.VersionDuplicate, core.MisbehaviorContext{})
	}
	want := map[string]float64{
		"forensics_records_total":         4,
		"forensics_records_trimmed_total": 1,
		"forensics_peers_evicted_total":   1,
	}
	for _, s := range reg.Gather() {
		if v, ok := want[s.Name]; ok {
			if s.Value != v {
				t.Errorf("%s = %v, want %v", s.Name, s.Value, v)
			}
			delete(want, s.Name)
		}
	}
	for name := range want {
		t.Errorf("%s is not registered", name)
	}
}
