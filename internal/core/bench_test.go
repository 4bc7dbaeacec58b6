package core

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// benchPeerIDs returns n distinct identifiers shaped like real [IP:Port]
// peer IDs, spread across shards the way distinct attackers would be.
func benchPeerIDs(n int) []PeerID {
	ids := make([]PeerID, n)
	for i := range ids {
		ids[i] = PeerID(fmt.Sprintf("[10.%d.%d.%d]:8333", i>>16&0xff, i>>8&0xff, i&0xff))
	}
	return ids
}

// runScoreBench fans b.N misbehavior hits across g goroutines, each acting
// as one distinct peer — the BM-DoS shape: many attackers scoring
// concurrently against one victim's tracker. Goroutine count is explicit
// (not RunParallel) so the sub-benchmark names mean the same thing on every
// machine regardless of GOMAXPROCS.
func runScoreBench(b *testing.B, g int, hit func(id PeerID)) {
	b.Helper()
	b.ReportAllocs()
	ids := benchPeerIDs(g)
	per := (b.N + g - 1) / g
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(id PeerID) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				hit(id)
			}
		}(ids[i])
	}
	wg.Wait()
}

// BenchmarkBanScoreParallel measures the tracker's misbehavior hot path
// under 1, 8, and 64 concurrent peers, against the single-global-mutex
// reference model (modelTracker) doing the same Table I work.
// ModeThresholdInfinity keeps scores accumulating without ban-list churn,
// isolating the score-path lock behavior.
func BenchmarkBanScoreParallel(b *testing.B) {
	for _, g := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("goroutines=%d", g), func(b *testing.B) {
			tr := NewTracker(Config{Mode: ModeThresholdInfinity})
			runScoreBench(b, g, func(id PeerID) {
				misbehave(tr, id, true, VersionDuplicate)
			})
		})
	}
	for _, g := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("baseline=single-mutex/goroutines=%d", g), func(b *testing.B) {
			tr := newModelTracker(V0_20_0, 0)
			runScoreBench(b, g, func(id PeerID) {
				tr.misbehaving(id, true, VersionDuplicate)
			})
		})
	}
}

// BenchmarkBanScoreForensics is the same hot path with the forensics ledger
// attached — every hit appends a BanRecord under the shard lock — so ledger
// overhead regressions surface in the bench gate.
func BenchmarkBanScoreForensics(b *testing.B) {
	tr := NewTracker(Config{
		Mode:      ModeThresholdInfinity,
		Forensics: NewLedger(1024, 128),
	})
	runScoreBench(b, 8, func(id PeerID) {
		tr.MisbehavingCtx(id, true, VersionDuplicate, MisbehaviorContext{Command: "version"})
	})
}

// BenchmarkBanScoreBatch is the batched entry point at the event loop's
// cadence: a connection visit stages up to 64 hits, all one identity's,
// and flushes them; ns/op is per hit. Compare goroutines=1 above, the same
// hits through MisbehavingCtx.
func BenchmarkBanScoreBatch(b *testing.B) {
	tr := NewTracker(Config{Mode: ModeThresholdInfinity})
	batch := tr.NewBatch()
	ids := benchPeerIDs(256)
	mctx := MisbehaviorContext{Command: "version"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Add(ids[i/64%len(ids)], true, VersionDuplicate, mctx)
		if i%64 == 63 {
			batch.Flush(nil)
		}
	}
	batch.Flush(nil)
}

// BenchmarkBanListContention measures the read-mostly IsBanned path — the
// check every inbound connection and message pays — while 64 goroutines
// read concurrently. Before sharding + RLock this serialized on one write
// lock; the benchmark keeps a small banned population so both the hit and
// miss paths are exercised.
func BenchmarkBanListContention(b *testing.B) {
	bl := NewBanList(time.Now)
	ids := benchPeerIDs(256)
	for _, id := range ids[:32] {
		bl.Ban(id, time.Hour)
	}
	b.ReportAllocs()
	const g = 64
	per := (b.N + g - 1) / g
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				bl.IsBanned(ids[(seed+j)&255])
			}
		}(i * 37)
	}
	wg.Wait()
}
