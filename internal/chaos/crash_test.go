package chaos

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"banscore/internal/attack"
	"banscore/internal/banstore"
	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/reputation"
)

// openFDs counts the process's open file descriptors (-1 where /proc is
// unavailable). Crash-storm scenarios reopen the same store repeatedly;
// every generation must release its segment and snapshot handles.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestCrashStormBanStateSurvives is the tentpole durability scenario: a
// victim node with crash-safe persistence is Sybil-flooded from one /16
// until identifiers and the whole netgroup are banned, then killed
// mid-flood (Crash drops the unflushed group-commit window, exactly what
// SIGKILL costs) and restarted on the same store. The attacker must gain
// nothing from the death: banned identifiers stay banned, the netgroup
// stays collectively banned, fresh identities from the prefix are refused
// at accept, and scores survive to within one group-commit window.
func TestCrashStormBanStateSurvives(t *testing.T) {
	dir := t.TempDir()
	fdsBefore := openFDs()

	// One process lifetime: store opens (recovering whatever the previous
	// life persisted), the engine is born with the store as its recorder,
	// and the cluster restores recovered state before serving.
	boot := func() (*banstore.Store, *banstore.Recovered, *reputation.Engine, *Cluster) {
		t.Helper()
		cl, err := NewCluster(Config{
			HonestPeers: 1,
			Options: node.Options{
				Store:  &banstore.Options{Dir: dir, FsyncInterval: 10 * time.Millisecond},
				Engine: &reputation.Config{PeerContributionCap: 40, GroupBudget: 150},
				Config: node.Config{SnapshotEvery: -1}, // snapshots forced explicitly below
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Store, cl.Recovered, cl.Victim.Reputation(), cl
	}

	// Life 1: flood until the collective ban lands.
	s, _, engine, cl := boot()
	const swarmGroup = "ip4:10.9/16"
	forge := attack.NewForge(blockchain.SimNetParams())
	groupBanned := func(e *reputation.Engine) bool {
		_, status := e.GroupPressure(swarmGroup)
		return status == reputation.GroupBanned
	}

	var bannedIDs []core.PeerID
	for i := 0; !groupBanned(engine); i++ {
		if i >= 32 {
			t.Fatal("netgroup never banned by the flood")
		}
		addr := fmt.Sprintf("10.9.1.%d:4001", 10+i)
		id := core.PeerIDFromAddr(addr)
		deadline := time.Now().Add(15 * time.Second)
		for !cl.Victim.Tracker().IsBanned(id) && !groupBanned(engine) {
			if time.Now().After(deadline) {
				t.Fatalf("identity %s never banned", addr)
			}
			conn, err := cl.Fabric.Dial(addr, VictimAddr)
			if err != nil {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			attackOnce(conn, forge)
		}
		if cl.Victim.Tracker().IsBanned(id) {
			bannedIDs = append(bannedIDs, id)
		}
		if i == 1 {
			// Mid-flood snapshot: recovery must stitch it to the WAL
			// tail written after it, not trust either side alone.
			if err := cl.Victim.WriteSnapshot(); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}
		}
	}
	if len(bannedIDs) == 0 {
		t.Fatal("flood banned the group but no identifier — scenario needs both")
	}

	// Durability checkpoint, then more damage that may die with the
	// process: everything after Sync is one group-commit window.
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if conn, err := cl.Fabric.Dial("10.9.2.2:4002", VictimAddr); err == nil {
		attackOnce(conn, forge)
	}

	// SIGKILL: the store dies without flushing, the cluster tears down.
	s.Crash()
	cl.Close()

	// Life 2: same directory, fresh process state.
	_, rec2, engine2, cl2 := boot()
	defer func() {
		if err := cl2.Close(); err != nil {
			t.Errorf("Close after recovery: %v", err)
		}
	}()
	if rec2.Truncations != 0 {
		t.Errorf("clean crash (whole frames only) reported %d truncations", rec2.Truncations)
	}

	if !groupBanned(engine2) {
		t.Fatal("netgroup ban did not survive the crash")
	}
	for _, id := range bannedIDs {
		if !cl2.Victim.Tracker().IsBanned(id) {
			t.Errorf("identifier ban for %s lost in the crash", id)
		}
	}

	// A never-seen identity from the banned /16 is refused at accept by
	// the restored engine — the Sybil reconnect a restart used to enable.
	if conn, err := cl2.Fabric.Dial("10.9.250.250:6000", VictimAddr); err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Error("banned-prefix identity admitted after restart")
		}
		conn.Close()
	}
	waitFor(t, 5*time.Second, "netgroup refusal counted post-restart", func() bool {
		return cl2.Victim.Stats().NetgroupConnsRefused >= 1
	})

	// Two full store generations must not leak descriptors. (Goroutines
	// are covered binary-wide by leakcheck.Main.)
	if fdsBefore > 0 {
		waitFor(t, 5*time.Second, "file descriptors released", func() bool {
			return openFDs() <= fdsBefore+10
		})
	}
}

// crashChildEnv carries the store directory into the helper process below.
const crashChildEnv = "BANSTORE_CRASH_CHILD_DIR"

// TestBanstoreCrashChild is not a test: it is the victim process for
// TestSIGKILLRecoveryStorm, selected via -test.run with crashChildEnv set.
// It appends good-score records in a tight loop with periodic snapshots
// until the parent kills it — ideally mid-write, mid-fsync, or mid-rename.
func TestBanstoreCrashChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("helper process for TestSIGKILLRecoveryStorm")
	}
	s, rec, err := banstore.Open(banstore.Options{Dir: dir, FsyncInterval: time.Millisecond})
	if err != nil {
		fmt.Printf("CHILD-OPEN-ERROR %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("READY %d\n", rec.LastLSN)
	tracker := core.NewTracker(core.Config{})
	for i := 0; ; i++ {
		// Total == the record's own LSN, so any recovered prefix shows a
		// monotonically increasing total.
		s.AppendGood("storm-peer", int(s.LSN())+1)
		if i%512 == 511 {
			lsn := s.LSN()
			_ = s.Snapshot(banstore.CaptureState(tracker, nil, nil), lsn)
		}
	}
}

// TestSIGKILLRecoveryStorm kills a real process with SIGKILL mid-append
// over several rounds reusing one store directory. Every recovery must
// succeed by truncation — never refuse, never panic — and the persisted
// frontier must only move forward across deaths.
func TestSIGKILLRecoveryStorm(t *testing.T) {
	if os.Getenv(crashChildEnv) != "" {
		t.Skip("already inside the helper process")
	}
	dir := t.TempDir()
	var prevLSN uint64
	prevGood := 0
	for round := 0; round < 4; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestBanstoreCrashChild$")
		cmd.Env = append(os.Environ(), crashChildEnv+"="+dir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(stdout)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("round %d: child died before ready: %v", round, err)
			}
			if strings.HasPrefix(line, "CHILD-OPEN-ERROR") {
				t.Fatalf("round %d: child failed to open store: %s", round, line)
			}
			if strings.HasPrefix(line, "READY") {
				break
			}
		}
		// Let it write for a while — a different while each round, so
		// deaths land at different points of the append/snapshot cycle.
		time.Sleep(time.Duration(20+round*35) * time.Millisecond)
		if err := cmd.Process.Kill(); err != nil {
			t.Fatalf("round %d: kill: %v", round, err)
		}
		_ = cmd.Wait()

		s, rec, err := banstore.Open(banstore.Options{Dir: dir})
		if err != nil {
			t.Fatalf("round %d: recovery failed: %v", round, err)
		}
		if rec.LastLSN < prevLSN {
			t.Fatalf("round %d: frontier went backwards: %d < %d", round, rec.LastLSN, prevLSN)
		}
		tracker := core.NewTracker(core.Config{})
		banstore.Restore(rec, tracker, nil, nil)
		good := tracker.GoodScore("storm-peer")
		if good < prevGood {
			t.Fatalf("round %d: good total went backwards: %d < %d", round, good, prevGood)
		}
		prevLSN, prevGood = rec.LastLSN, good
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
	}
	if prevLSN == 0 {
		t.Fatal("storm persisted nothing across four rounds")
	}
}
