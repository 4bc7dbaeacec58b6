package core

import (
	"time"

	"banscore/internal/ring"
)

// This file is the core layer's durability seam: plain exported snapshots
// of the Tracker's score maps, the BanList, and the forensics Ledger, plus
// the import paths the banstore recovery uses to rebuild them. Exports are
// canonical in the sense the crash-recovery property test needs — the same
// logical state always exports the same structure regardless of shard
// count or map iteration order (callers sort map keys before encoding;
// ledger chains come out oldest-first in first-appearance order).
//
// Import is a boot-time operation: it assumes the target is freshly
// constructed and not yet receiving traffic, so it takes the same locks
// as normal operation but makes no attempt to merge with concurrent
// updates.

// ExportScores returns copies of the tracker's ban-score and good-score
// maps, assembled shard by shard under the read locks (consistent per
// shard, the same guarantee every whole-tracker view gives).
func (t *Tracker) ExportScores() (scores, good map[PeerID]int) {
	scores = make(map[PeerID]int)
	good = make(map[PeerID]int)
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for id, v := range s.scores {
			scores[id] = v
		}
		for id, v := range s.good {
			good[id] = v
		}
		s.mu.RUnlock()
	}
	return scores, good
}

// ImportScores installs restored score state. Entries land on whatever
// shard their identifier hashes to, so the import is shard-count
// independent: a snapshot taken at 8 shards restores identically at 256.
func (t *Tracker) ImportScores(scores, good map[PeerID]int) {
	for id, v := range scores {
		s := t.shard(id)
		s.mu.Lock()
		s.scores[id] = v
		s.mu.Unlock()
	}
	for id, v := range good {
		s := t.shard(id)
		s.mu.Lock()
		s.good[id] = v
		s.mu.Unlock()
	}
}

// Export returns a copy of the ban set with expiry times, including
// entries whose ban has lapsed but not yet been lazily pruned — recovery
// re-imports them and the normal IsBanned path prunes as usual.
func (b *BanList) Export() map[PeerID]time.Time {
	out := make(map[PeerID]time.Time)
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.RLock()
		for id, until := range s.banned {
			out[id] = until
		}
		s.mu.RUnlock()
	}
	return out
}

// Import installs restored bans. Expired entries are skipped — a ban that
// lapsed while the node was down must not resurrect.
func (b *BanList) Import(bans map[PeerID]time.Time) {
	now := b.now()
	for id, until := range bans {
		if now.After(until) {
			continue
		}
		s := b.shard(id)
		s.mu.Lock()
		s.banned[id] = until
		s.mu.Unlock()
	}
}

// LedgerChain is one peer's exported forensics chain.
type LedgerChain struct {
	Peer PeerID

	// Seq is the chain's sequence counter — the Seq of the newest record
	// ever appended for this peer, NOT len(Records): ring eviction trims
	// old records but never rewinds the counter. Restoring it is what
	// keeps per-peer Seq monotonic across a snapshot/restore cycle; a
	// restore that recomputed it from the surviving records would reissue
	// already-used sequence numbers and corrupt the causal chain.
	Seq uint64

	// Records is the retained window, oldest first.
	Records []BanRecord
}

// LedgerState is the exported forensics ledger: every chain in
// first-appearance order plus the lifetime counters. The counters travel
// with the chains on purpose — Total/Evicted/Trimmed are forensic facts
// ("how much history has this node ever recorded / discarded"), and a
// restore that zeroed them would misreport a long-lived node as fresh.
type LedgerState struct {
	MaxPeers   int
	MaxPerPeer int

	Chains []LedgerChain

	Total   uint64
	Evicted uint64
	Trimmed uint64
}

// ExportState snapshots the ledger. Nil-safe: a nil ledger exports the
// zero state.
func (l *Ledger) ExportState() LedgerState {
	if l == nil {
		return LedgerState{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LedgerState{
		MaxPeers:   l.order.Limit(),
		MaxPerPeer: l.maxPerPeer,
		Chains:     make([]LedgerChain, 0, l.order.Len()),
		Total:      l.total,
		Evicted:    l.order.Dropped(),
		Trimmed:    l.trimmed,
	}
	for _, id := range l.order.Snapshot() {
		c := l.chains[id]
		st.Chains = append(st.Chains, LedgerChain{Peer: id, Seq: c.seq, Records: c.records.Snapshot()})
	}
	return st
}

// ImportState replaces the ledger's content with the restored state. The
// ledger keeps its own configured caps (st's caps describe the exporter):
// the newest chains and each chain's newest records that fit are installed,
// the rest added to the evicted and trimmed counters. No-op on a nil ledger.
func (l *Ledger) ImportState(st LedgerState) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	peers := make([]PeerID, len(st.Chains))
	for i, ec := range st.Chains {
		peers[i] = ec.Peer
	}
	l.order.Load(peers, st.Evicted)
	l.chains = make(map[PeerID]*chain, l.order.Len())
	l.total, l.trimmed = st.Total, st.Trimmed
	for _, ec := range st.Chains[len(st.Chains)-l.order.Len():] {
		c := &chain{records: ring.New[BanRecord](l.maxPerPeer), seq: ec.Seq}
		c.records.Load(ec.Records, 0)
		l.trimmed += c.records.Dropped()
		l.chains[ec.Peer] = c
	}
}

// Restore replays one WAL record into the ledger: an append that honors
// the record's stamped sequence number instead of reissuing one. Records
// at or below the chain's current counter are already present (they were
// captured by the snapshot this replay runs on top of) and are skipped,
// which is what makes WAL replay idempotent against the snapshot. A
// record with Seq zero was produced by a tracker running without a
// forensics ledger; it is stamped like a live append. No-op on nil.
func (l *Ledger) Restore(rec BanRecord) { l.add(rec) }
