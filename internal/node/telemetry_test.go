package node

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

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

// TestSlotKeeperHandlesWrappedSentinels drives the errors Connect returns,
// each wrapped, through the outbound slot keeper and its telemetry label. A
// full slot table and a Dialer reporting ErrNodeStopped each end the keeper
// after one attempt; a banned target is counted as "banned". Compared with
// == instead of errors.Is, each sentinel is missed: the keeper retries until
// the node stops, and the ban is counted as a dial error.
func TestSlotKeeperHandlesWrappedSentinels(t *testing.T) {
	const addr = "10.0.0.9:8333"
	for _, tc := range []struct {
		name string
		full bool // every outbound slot taken
		dial func(string) (net.Conn, error)
	}{
		{"slots full", true, func(string) (net.Conn, error) {
			return nil, errors.New("a full slot table must not dial")
		}},
		{"node stopped", false, func(string) (net.Conn, error) {
			return nil, fmt.Errorf("fabric closing: %w", ErrNodeStopped)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(Config{Dialer: tc.dial, ReconnectBackoff: time.Millisecond})
			defer n.Stop()
			if tc.full {
				n.mu.Lock()
				n.outbound = DefaultMaxOutbound
				n.mu.Unlock()
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				n.keepOutboundSlot(addr)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatalf("the keeper is still retrying after %d attempts", n.Stats().ReconnectAttempts)
			}
			if got := n.Stats().ReconnectAttempts; got != 1 {
				t.Fatalf("the keeper made %d attempts, want 1", got)
			}
		})
	}

	t.Run("banned target", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		n := New(Config{Telemetry: reg, Dialer: func(string) (net.Conn, error) {
			return nil, errors.New("a banned target must not be dialed")
		}})
		defer n.Stop()
		id := core.PeerIDFromAddr(addr)
		for !n.Tracker().IsBanned(id) {
			n.Tracker().MisbehavingCtx(id, false, core.AddrOversize, core.MisbehaviorContext{})
		}
		err := n.Connect(addr)
		if !errors.Is(err, ErrPeerBanned) || err == ErrPeerBanned {
			t.Fatalf("Connect to a banned target = %v, want a wrapped ErrPeerBanned", err)
		}
		n.metrics.reconnectAttempt(err)
		for _, s := range reg.Gather() {
			if s.Name == "node_reconnect_attempts_total" && len(s.Labels) == 1 && s.Labels[0].Value == "banned" && s.Value == 1 {
				return
			}
		}
		t.Fatal(`the attempt is not counted under node_reconnect_attempts_total{result="banned"}`)
	})
}
