package node

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"banscore/internal/banstore"
	"banscore/internal/core"
	"banscore/internal/reputation"
	"banscore/internal/simnet"
	"banscore/internal/trace"
)

// TestAssembleRestoresBeforeServing: a peer banned in one assembly's life is
// refused on its very first dial into the next one, assembled on the same
// directory after the store crashed — the restore lands before the accept
// loop starts, so no connection slips in ahead of it.
func TestAssembleRestoresBeforeServing(t *testing.T) {
	dir := t.TempDir()
	const victim, attacker = "10.0.0.1:8333", "10.0.0.66:50001"
	assemble := func() (*Assembly, *simnet.Network) {
		t.Helper()
		fabric := simnet.NewNetwork()
		a, err := Assemble(Options{
			Config: Config{SnapshotEvery: -1},
			Store:  &banstore.Options{Dir: dir, Fsync: banstore.FsyncNone},
			Fabric: fabric,
			Listen: victim,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			a.Close()
			fabric.Close()
		})
		return a, fabric
	}

	a, fabric := assemble()
	conn, err := fabric.Dial(attacker, victim)
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, conn)
	for i := 0; i < 5; i++ {
		send(t, conn, oversizeAddr())
	}
	id := core.PeerIDFromAddr(attacker)
	waitFor(t, "attacker banned", func() bool { return a.Node.Tracker().IsBanned(id) })
	conn.Close()
	if err := a.Store.Sync(); err != nil {
		t.Fatal(err)
	}
	a.Store.Crash()
	a.Close()

	a2, fabric2 := assemble()
	if !a2.Node.Tracker().IsBanned(id) {
		t.Fatal("ban not restored by the second assembly")
	}
	conn2, err := fabric2.Dial(attacker, victim)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := conn2.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("first dial after restart read %v, want EOF (refused)", err)
	}
	waitFor(t, "refusal counted", func() bool { return a2.Node.Stats().BannedConnsRefused == 1 })
	if in, _ := a2.Node.PeerCount(); in != 0 {
		t.Fatalf("%d inbound peers accepted, want 0", in)
	}
}

// TestAssembleCloseLeavesNothing: an assembly holding every component
// (store, engine, tracer, registry, a started server, a TCP listener)
// closes without leaving a goroutine behind, closes the store it opened,
// and tolerates a second Close.
func TestAssembleCloseLeavesNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	a, err := Assemble(Options{
		Store:   &banstore.Options{Dir: t.TempDir()},
		Engine:  &reputation.Config{},
		Observe: true,
		Trace:   &trace.Config{},
		Listen:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Server.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", a.Addr.String())
	if err != nil {
		t.Fatal(err)
	}
	handshake(t, conn)
	conn.Close()

	if err := a.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	lsn := a.Store.LSN()
	a.Store.AppendGood("after-close", 1)
	if a.Store.LSN() != lsn {
		t.Fatal("store still takes appends after Close")
	}
	waitFor(t, "goroutines reaped", func() bool { return runtime.NumGoroutine() <= before })
}
