package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPickShardCountPowerOfTwo(t *testing.T) {
	n := pickShardCount()
	if n < minShards || n > maxShards {
		t.Fatalf("shard count %d outside [%d, %d]", n, minShards, maxShards)
	}
	if n&(n-1) != 0 {
		t.Fatalf("shard count %d is not a power of two", n)
	}
	tr := NewTracker(Config{})
	if tr.ShardCount() != n {
		t.Fatalf("tracker shards %d, pickShardCount %d", tr.ShardCount(), n)
	}
	if bl := NewBanList(time.Now); bl.ShardCount() != n {
		t.Fatalf("banlist shards %d, pickShardCount %d", bl.ShardCount(), n)
	}
}

func TestShardForStableAndMasked(t *testing.T) {
	const mask = 7
	for i := 0; i < 1000; i++ {
		id := PeerID(fmt.Sprintf("[10.0.0.%d]:%d", i&0xff, 8000+i))
		a, b := shardFor(id, mask), shardFor(id, mask)
		if a != b {
			t.Fatalf("shardFor(%q) unstable: %d vs %d", id, a, b)
		}
		if a > mask {
			t.Fatalf("shardFor(%q) = %d beyond mask %d", id, a, mask)
		}
	}
}

// sameShardPeers returns two distinct peer IDs that land on the same shard
// of tr, so shard-boundary tests exercise genuine intra-shard interleaving.
func sameShardPeers(t *testing.T, tr *Tracker) (PeerID, PeerID) {
	t.Helper()
	mask := uint32(tr.ShardCount() - 1)
	first := PeerID("[10.9.0.1]:8333")
	want := shardFor(first, mask)
	for i := 2; i < 100000; i++ {
		id := PeerID(fmt.Sprintf("[10.9.%d.%d]:8333", i>>8&0xff, i&0xff))
		if shardFor(id, mask) == want {
			return first, id
		}
	}
	t.Fatal("no shard collision found")
	return "", ""
}

// TestSameShardPeersIndependent drives two peers that share a shard
// concurrently and checks neither's score bleeds into the other.
func TestSameShardPeersIndependent(t *testing.T) {
	tr := NewTracker(Config{Mode: ModeThresholdInfinity})
	a, b := sameShardPeers(t, tr)
	const hits = 500
	var wg sync.WaitGroup
	for _, id := range []PeerID{a, b} {
		wg.Add(1)
		go func(id PeerID) {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				misbehave(tr, id, true, VersionDuplicate)
			}
		}(id)
	}
	wg.Wait()
	if got := tr.Score(a); got != hits {
		t.Fatalf("peer a score %d, want %d", got, hits)
	}
	if got := tr.Score(b); got != hits {
		t.Fatalf("peer b score %d, want %d", got, hits)
	}
}

// TestForgetRacingMisbehaving hammers Forget against Misbehaving on the
// same peer. Under -race this proves the shard lock covers both paths; the
// invariant check is that the final score is coherent (either zero after
// the last Forget or a bounded positive count — never garbage).
func TestForgetRacingMisbehaving(t *testing.T) {
	tr := NewTracker(Config{Mode: ModeThresholdInfinity})
	id := PeerID("[10.1.2.3]:8333")
	const rounds = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			misbehave(tr, id, true, VersionDuplicate)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tr.Forget(id)
		}
	}()
	wg.Wait()
	if got := tr.Score(id); got < 0 || got > rounds {
		t.Fatalf("score %d incoherent after race", got)
	}
}

// TestLedgerSeqPerPeerAcrossShards floods peers spread over every shard
// with a shared ledger and asserts each peer's forensic chain is
// linearized: per-peer Seq strictly increasing and the carried Score
// totals monotonic — the guarantee that sharding must not have broken.
func TestLedgerSeqPerPeerAcrossShards(t *testing.T) {
	ledger := NewLedger(0, 0)
	tr := NewTracker(Config{Mode: ModeThresholdInfinity, Forensics: ledger})
	const peers = 32
	const hits = 100
	var wg sync.WaitGroup
	ids := make([]PeerID, peers)
	for i := range ids {
		ids[i] = PeerID(fmt.Sprintf("[10.2.0.%d]:8333", i))
		wg.Add(1)
		go func(id PeerID) {
			defer wg.Done()
			for j := 0; j < hits; j++ {
				tr.MisbehavingCtx(id, true, VersionDuplicate, MisbehaviorContext{Command: "version"})
			}
		}(ids[i])
	}
	wg.Wait()
	for _, id := range ids {
		recs := ledger.Records(id)
		if len(recs) != hits {
			t.Fatalf("peer %s: %d records, want %d", id, len(recs), hits)
		}
		for i, rec := range recs {
			if rec.Seq != uint64(i+1) {
				t.Fatalf("peer %s record %d: seq %d, want %d", id, i, rec.Seq, i+1)
			}
			if rec.Score != (i+1)*rec.Delta {
				t.Fatalf("peer %s record %d: score %d not linearized (delta %d)", id, i, rec.Score, rec.Delta)
			}
		}
	}
}

// TestBanListConcurrentMutation exercises IsBanned's RLock fast path while
// bans, unbans, and expiries churn the same shards.
func TestBanListConcurrentMutation(t *testing.T) {
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	bl := NewBanList(clock)
	ids := make([]PeerID, 64)
	for i := range ids {
		ids[i] = PeerID(fmt.Sprintf("[10.3.0.%d]:8333", i))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(seed*31+i)&63]
				switch i % 4 {
				case 0:
					bl.Ban(id, time.Minute)
				case 1:
					bl.IsBanned(id)
				case 2:
					bl.Unban(id)
				default:
					bl.Count()
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Expiry pruning still works after the churn: ban everyone, advance the
	// clock past the duration, and watch IsBanned prune on the read path.
	for _, id := range ids {
		bl.Ban(id, time.Minute)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	for _, id := range ids {
		if bl.IsBanned(id) {
			t.Fatalf("peer %s still banned after expiry", id)
		}
	}
	if got := bl.Count(); got != 0 {
		t.Fatalf("count %d after full expiry", got)
	}
}
