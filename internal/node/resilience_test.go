package node

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/peer"
)

// remoteNode starts a bare node listening at addr on env's fabric and adds
// it to the target's peer table.
func remoteNode(t *testing.T, env *testEnv, addr string) *Node {
	t.Helper()
	remote := New(Config{})
	l, err := env.fabric.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	remote.Serve(l)
	t.Cleanup(remote.Stop)
	env.node.AddrManager().Add(addr)
	return remote
}

// TestReconnectSurvivesDialFailure is the regression test for the keeper:
// the old reconnect goroutine abandoned the outbound slot permanently on
// the first Connect error. Kill exactly one dial and the slot must still
// be restored.
func TestReconnectSurvivesDialFailure(t *testing.T) {
	tap := newRecordingTap()
	env := newEnv(t, func(cfg *Config) {
		cfg.Tap = tap
		cfg.ReconnectBackoff = 10 * time.Millisecond
	})
	remoteNode(t, env, "10.0.0.9:8333")

	if err := env.node.Connect("10.0.0.9:8333"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "outbound up", func() bool {
		_, out := env.node.PeerCount()
		return out == 1
	})

	env.fabric.FailNextDials("10.0.0.9:8333", 1)
	env.node.DisconnectPeer(core.PeerIDFromAddr("10.0.0.9:8333"))

	waitFor(t, "slot restored after failed dial", func() bool {
		_, out := env.node.PeerCount()
		return out == 1 && tap.Reconnects() == 1
	})
	if got := env.node.Stats().ReconnectAttempts; got < 2 {
		t.Errorf("ReconnectAttempts = %d, want >= 2 (one failure, one success)", got)
	}
	waitFor(t, "deficit cleared", func() bool {
		return env.node.Stats().PendingOutbound == 0
	})
}

// TestHandshakeDeadlineReclaimsInboundSlot: a peer that connects and goes
// silent pre-VERACK is dropped at the deadline, freeing its slot.
func TestHandshakeDeadlineReclaimsInboundSlot(t *testing.T) {
	env := newEnv(t, func(cfg *Config) {
		cfg.HandshakeTimeout = 50 * time.Millisecond
	})

	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	waitFor(t, "inbound slot taken", func() bool {
		in, _ := env.node.PeerCount()
		return in == 1
	})

	waitFor(t, "silent peer dropped at handshake deadline", func() bool {
		in, _ := env.node.PeerCount()
		return in == 0
	})
	if got := env.node.Stats().HandshakeTimeouts; got != 1 {
		t.Errorf("HandshakeTimeouts = %d, want 1", got)
	}
}

// TestHandshakeDeadlineSparesCompletedPeers: the watchdog must not fire on
// a peer whose VERSION/VERACK completed in time.
func TestHandshakeDeadlineSparesCompletedPeers(t *testing.T) {
	env := newEnv(t, func(cfg *Config) {
		cfg.HandshakeTimeout = 100 * time.Millisecond
	})
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	time.Sleep(200 * time.Millisecond)
	in, _ := env.node.PeerCount()
	if in != 1 {
		t.Fatalf("inbound = %d after deadline, want 1 (handshake completed)", in)
	}
	if got := env.node.Stats().HandshakeTimeouts; got != 0 {
		t.Errorf("HandshakeTimeouts = %d, want 0", got)
	}
}

// TestHandshakeWatchdogReleasesClosedPeers: nothing the node schedules may
// keep a peer reachable past its teardown. The handshake watchdog used to:
// its never-stopped timer held each closed connection's peer — 1,024-slot
// send queue, conn, both pipe buffers — until the deadline, so the number of
// connections an attacker had opened and lost in the last HandshakeTimeout
// sized the victim's heap. With the deadline an hour away, peers that
// connect and leave must be collectable at once.
func TestHandshakeWatchdogReleasesClosedPeers(t *testing.T) {
	env := newEnv(t, func(cfg *Config) {
		cfg.HandshakeTimeout = time.Hour
	})
	const conns = 200
	var collected atomic.Int32
	for i := 0; i < conns; i++ {
		from := fmt.Sprintf("10.0.%d.2:50001", i)
		conn := env.dial(t, from)
		var p *peer.Peer
		waitFor(t, "inbound peer registered", func() bool {
			env.node.mu.Lock()
			defer env.node.mu.Unlock()
			p = env.node.peers[core.PeerIDFromAddr(from)]
			return p != nil
		})
		// A Peer points at itself (its pick closure), and a finalizer on
		// an object in a cycle never runs; so the peer is handed a marker
		// only it can reach, and the finalizer goes on that.
		marker := new([16]byte)
		runtime.SetFinalizer(marker, func(*[16]byte) { collected.Add(1) })
		p.SetQueueWake(func() { _ = marker })
		p = nil
		conn.Close()
		waitFor(t, "closed peer retired", func() bool {
			in, _ := env.node.PeerCount()
			return in == 0
		})
	}
	// A finalizer runs on the collection after the one that found its
	// object unreachable, on its own goroutine.
	waitFor(t, "closed peers collected", func() bool {
		runtime.GC()
		runtime.GC()
		return collected.Load() >= conns*95/100
	})
}

// TestHealthDegradedOnOutboundDeficit: /healthz content follows the keeper
// deficit across a partition and its heal.
func TestHealthDegradedOnOutboundDeficit(t *testing.T) {
	env := newEnv(t, func(cfg *Config) {
		cfg.ReconnectBackoff = 10 * time.Millisecond
	})
	remoteNode(t, env, "10.0.0.9:8333")

	if err := env.node.Connect("10.0.0.9:8333"); err != nil {
		t.Fatal(err)
	}
	if healthy, fields := env.node.Health(); !healthy {
		t.Fatalf("healthy node reports degraded: %v", fields)
	}

	// Cut the link: the disconnect leaves a deficit the keeper cannot
	// refill while the partition stands.
	env.fabric.Partition("cut", []string{"10.0.0.1"}, []string{"10.0.0.9"})
	env.node.DisconnectPeer(core.PeerIDFromAddr("10.0.0.9:8333"))

	waitFor(t, "degraded health under partition", func() bool {
		healthy, fields := env.node.Health()
		return !healthy && fields["outbound_deficit"].(int) == 1
	})

	env.fabric.Heal("cut")
	waitFor(t, "healthy again after heal", func() bool {
		healthy, _ := env.node.Health()
		return healthy
	})
}

// TestHealthDegradedOnBanTableSaturation: a Defamation-style flood of bans
// past the soft limit flips health.
func TestHealthDegradedOnBanTableSaturation(t *testing.T) {
	env := newEnv(t, func(cfg *Config) {
		cfg.BanTableSoftLimit = 2
	})
	for _, id := range []string{"10.9.0.1:1", "10.9.0.2:1", "10.9.0.3:1"} {
		env.node.Tracker().BanList().Ban(core.PeerIDFromAddr(id), time.Hour)
	}
	healthy, fields := env.node.Health()
	if healthy {
		t.Fatalf("node healthy with saturated ban table: %v", fields)
	}
	reasons, _ := fields["degraded"].([]string)
	if len(reasons) != 1 || reasons[0] != "ban-table-saturated" {
		t.Errorf("degraded reasons = %v, want [ban-table-saturated]", reasons)
	}
}
