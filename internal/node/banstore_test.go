package node

import (
	"testing"

	"banscore/internal/banstore"
	"banscore/internal/core"
)

// TestNodeBanStatePersistsAcrossRestart is the node-level durability
// contract: a ban earned in one process lifetime survives into the next
// through the WAL + snapshot store, so a banned attacker cannot reset
// their standing by waiting for (or forcing) a restart.
func TestNodeBanStatePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	attacker := core.PeerID("203.0.113.9:8333")
	scored := core.PeerID("203.0.113.10:8333")

	s, rec, err := banstore.Open(banstore.Options{Dir: dir, Fsync: banstore.FsyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := New(Config{BanStore: s, BanStoreRecovered: rec, SnapshotEvery: -1})
	n.Tracker().MisbehavingCtx(attacker, true, core.BlockMutated, core.MisbehaviorContext{}) // 100 points: instant ban
	n.Tracker().MisbehavingCtx(scored, true, core.AddrOversize, core.MisbehaviorContext{})   // 20 points: scored, not banned
	if !n.Tracker().IsBanned(attacker) {
		t.Fatal("attacker not banned pre-restart")
	}
	if err := n.WriteSnapshot(); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	// More misbehavior after the snapshot: recovery must stitch the
	// snapshot and the WAL tail together, not pick one.
	n.Tracker().MisbehavingCtx(scored, true, core.AddrOversize, core.MisbehaviorContext{})
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	n.Stop()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, rec2, err := banstore.Open(banstore.Options{Dir: dir, Fsync: banstore.FsyncNone})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer func() { _ = s2.Close() }()
	n2 := New(Config{BanStore: s2, BanStoreRecovered: rec2, SnapshotEvery: -1})
	defer n2.Stop()
	if !n2.Tracker().IsBanned(attacker) {
		t.Fatal("ban lost across restart")
	}
	if got := n2.Tracker().Score(scored); got != 40 {
		t.Fatalf("restored score %d, want 40 (snapshot 20 + WAL tail 20)", got)
	}
	// The node must not pin the recovery (and the segment image its
	// records view) past Restore; the caller's pointer stays whole.
	if n2.cfg.BanStoreRecovered != nil {
		t.Fatal("node still holds the recovery after Restore")
	}
	if len(rec2.Records) == 0 {
		t.Fatal("caller's recovery was emptied")
	}

	// Health surfaces the store's status alongside the node's own.
	healthy, fields := n2.Health()
	if !healthy {
		t.Fatalf("fresh restored node unhealthy: %v", fields)
	}
	if _, ok := fields["banstore"]; !ok {
		t.Fatal("Health missing banstore status")
	}
}
