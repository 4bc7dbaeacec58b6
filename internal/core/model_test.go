package core

import "sync"

// modelTracker is the reference model of Table I scoring the sharded Tracker
// and the Batch are checked against: one mutex, one score map, one ban set,
// no shards, no ledger, no callbacks. It is also the contention baseline of
// BenchmarkBanScoreParallel, where it does the same per-hit work as the
// Tracker under one global lock. banAt <= 0 never bans (ModeThresholdInfinity).
type modelTracker struct {
	mu     sync.Mutex
	rules  map[RuleID]int
	banAt  int
	scores map[PeerID]int
	banned map[PeerID]bool
}

func newModelTracker(v CoreVersion, banAt int) *modelTracker {
	return &modelTracker{rules: RuleSet(v), banAt: banAt, scores: map[PeerID]int{}, banned: map[PeerID]bool{}}
}

func (m *modelTracker) misbehaving(id PeerID, inbound bool, rule RuleID) Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	score, active := m.rules[rule]
	r, _ := LookupRule(rule)
	if !active || (r.Object == InboundPeer && !inbound) || (r.Object == OutboundPeer && inbound) {
		return Result{}
	}
	m.scores[id] += score
	res := Result{Applied: true, Score: m.scores[id], Delta: score, Banned: m.banAt > 0 && m.scores[id] >= m.banAt}
	if res.Banned {
		delete(m.scores, id)
		m.banned[id] = true
	}
	return res
}

func (m *modelTracker) forget(id PeerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.scores, id)
}
