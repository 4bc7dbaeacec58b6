package core

import (
	"fmt"
	"time"

	"banscore/internal/lockrank"
)

// Mode selects how the misbehavior tracker reacts to rule violations,
// covering the paper's §VIII countermeasures.
type Mode int

// Tracker modes.
const (
	// ModeStandard is Bitcoin Core's behavior: score, and ban at the
	// threshold.
	ModeStandard Mode = iota + 1

	// ModeThresholdInfinity keeps scoring but never bans — the paper's
	// "Ban score threshold to ∞" countermeasure (scores stay useful for
	// peer-health ranking).
	ModeThresholdInfinity

	// ModeDisabled omits misbehavior checking and tracking entirely —
	// the paper's "Disabling the checking" countermeasure.
	ModeDisabled

	// ModeGoodScore replaces ban score with the paper's good-score
	// reputation: misbehavior is never punished by banning; credit is
	// accumulated via AddGood on valid BLOCK delivery and exposed for
	// peer ranking.
	ModeGoodScore

	// ModeCKB implements the Nervos CKB-style scoring the paper surveys
	// in §IX-A: both good and bad behaviors are scored continuously,
	// nothing is auto-banned, and the node can "retain good (high-score)
	// peers and evict bad (low-score) peers" via Reputation ranking —
	// one of the non-binary mechanisms the paper proposes exploring.
	ModeCKB
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeStandard:
		return "standard"
	case ModeThresholdInfinity:
		return "threshold-infinity"
	case ModeDisabled:
		return "disabled"
	case ModeGoodScore:
		return "good-score"
	case ModeCKB:
		return "ckb-scoring"
	}
	return fmt.Sprintf("Unknown Mode (%d)", int(m))
}

// DefaultBanThreshold is Bitcoin Core's -banscore default.
const DefaultBanThreshold = 100

// Config parameterizes a Tracker.
type Config struct {
	// Version selects the Table I rule set. Default V0_20_0 (the
	// version the paper's testbed ran).
	Version CoreVersion

	// Mode of operation. Default ModeStandard.
	Mode Mode

	// BanThreshold at which a peer is banned. Default 100.
	BanThreshold int

	// BanDuration of a triggered ban. Default 24h.
	BanDuration time.Duration

	// Clock for ban expiry. Default time.Now.
	Clock func() time.Time

	// OnBan, if set, is invoked (synchronously) whenever a peer crosses
	// the threshold, before the identifier enters the ban list.
	OnBan func(id PeerID, score int)

	// OnApplied, if set, is invoked (synchronously) for every rule hit
	// that actually scored, with the rule, the score delta, and the
	// peer's resulting total. The telemetry layer hooks this to expose
	// live per-rule hit counters (Table I, observable on a running node)
	// without the tracker importing anything.
	OnApplied func(id PeerID, rule RuleID, delta, total int)

	// Forensics, if set, receives an immutable BanRecord for every rule
	// hit that scored — the causal chain /debug/bans/<peer> serves. Nil
	// disables the ledger.
	Forensics *Ledger

	// OnRecord, if set, receives the same BanRecord the forensics ledger
	// stores (Seq stamped when a ledger is installed, zero otherwise) for
	// every rule hit that scored. It is invoked under the peer's shard
	// lock so records observe exactly the order their totals were
	// computed in — the durability layer's WAL hook depends on that
	// ordering to replay absolute score totals correctly. Implementations
	// must therefore be non-blocking and fast (the banstore append is a
	// mutex-guarded buffer copy).
	OnRecord func(rec BanRecord)
}

func (c *Config) fillDefaults() {
	if c.Version == 0 {
		c.Version = V0_20_0
	}
	if c.Mode == 0 {
		c.Mode = ModeStandard
	}
	if c.BanThreshold == 0 {
		c.BanThreshold = DefaultBanThreshold
	}
	if c.BanDuration == 0 {
		c.BanDuration = DefaultBanDuration
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// Result reports what a Misbehaving call did.
type Result struct {
	// Applied is true when the rule exists in the configured version,
	// matched the peer's role, and tracking is enabled.
	Applied bool

	// Score is the peer's accumulated ban score after the call.
	Score int

	// Delta is the points this call added (the rule's Table I score).
	// Layers above the tracker — the reputation engine's netgroup
	// charge — consume it so they weight misbehavior identically.
	Delta int

	// Banned is true when this call pushed the peer over the threshold.
	Banned bool
}

// Tracker keeps per-peer ban scores and the ban list — the paper's
// "misbehavior tracking". The state is node-local and never broadcast,
// matching Fig. 2. Tracker is safe for concurrent use.
//
// Score state is sharded by identifier hash: every Misbehaving call locks
// only the peer's shard, so concurrent peers on different shards never
// contend — the property that lets the hot misbehavior path scale with
// cores under BM-DoS-style concurrent floods. A given peer always maps to
// the same shard, and its forensics record is appended under that shard's
// lock, so the per-peer ledger chain stays linearized against the score it
// reports. Whole-tracker views (TrackedPeers) merge per-shard snapshots.
type Tracker struct {
	cfg   Config
	rules map[RuleID]int

	mask   uint32
	shards []trackerShard

	banlist *BanList
}

type trackerShard struct {
	mu     lockrank.RWMutex[lockrank.TrackerShard]
	scores map[PeerID]int
	good   map[PeerID]int
}

// NewTracker returns a Tracker for the given configuration.
func NewTracker(cfg Config) *Tracker {
	cfg.fillDefaults()
	n := PickShardCount(0)
	t := &Tracker{
		cfg:     cfg,
		rules:   RuleSet(cfg.Version),
		mask:    uint32(n - 1),
		shards:  make([]trackerShard, n),
		banlist: NewBanList(cfg.Clock),
	}
	for i := range t.shards {
		t.shards[i].scores = make(map[PeerID]int)
		t.shards[i].good = make(map[PeerID]int)
	}
	return t
}

// ShardCount returns how many independently locked shards back the score
// state.
func (t *Tracker) ShardCount() int { return len(t.shards) }

func (t *Tracker) shard(id PeerID) *trackerShard {
	return &t.shards[shardFor(id, t.mask)]
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() Config { return t.cfg }

// BanList exposes the banning filter.
func (t *Tracker) BanList() *BanList { return t.banlist }

// MisbehaviorContext carries the causal context of one Misbehaving call for
// the forensics ledger: the wire command that triggered the rule, the
// lifecycle trace the message was sampled into (0 when untraced), and the
// offending message's payload evidence. The zero value is valid — the
// record is then rule/score only.
type MisbehaviorContext struct {
	Command string
	TraceID uint64

	// PayloadDigest is the wire checksum (first 4 bytes of double-SHA256)
	// of the offending message's payload — already computed during decode,
	// so attaching it costs nothing on the hot path. Together with
	// PayloadLen it lets an operator corroborate a ban against a packet
	// capture: the forensics chain names not just the rule but the bytes.
	PayloadDigest uint32

	// PayloadLen is the offending payload's length in bytes.
	PayloadLen int
}

// MisbehavingCtx applies the Table I rule against the peer, mirroring
// PeerManager::Misbehaving. inbound tells the tracker the peer's role so
// role-restricted rules (Table I "Object of Ban") apply correctly. When the
// tracker has a Ledger, every scoring call appends a BanRecord carrying
// mctx so the ban chain names the triggering command, trace and payload.
func (t *Tracker) MisbehavingCtx(id PeerID, inbound bool, rule RuleID, mctx MisbehaviorContext) Result {
	score, name, ok := t.prepare(inbound, rule)
	if !ok {
		return Result{}
	}
	// Score update, ban decision, and the forensics append all happen under
	// the peer's shard lock: the ledger chain for a peer is therefore
	// linearized against its score (records appear in exactly the order the
	// totals they carry were computed), and the score reset on ban cannot
	// race a concurrent hit into resurrecting a stale total.
	s := t.shard(id)
	s.mu.Lock()
	total, banned := t.applyLocked(s, id, rule, name, score, mctx)
	s.mu.Unlock()
	return t.finish(id, rule, score, total, banned)
}

// prepare runs the lock-free gate of a misbehavior application: mode
// checks, Table I rule lookup, and the role restriction. It returns the
// rule's score in the configured version and its Table I name; ok is false
// when the call must be a no-op. Shared verbatim by the direct path and the
// batched path so both reject exactly the same calls.
func (t *Tracker) prepare(inbound bool, rule RuleID) (score int, name string, ok bool) {
	if t.cfg.Mode == ModeDisabled || t.cfg.Mode == ModeGoodScore {
		// Checking/tracking omitted entirely (§VIII "Disabling the
		// checking"), or replaced by good-score reputation.
		return 0, "", false
	}
	// ModeCKB and ModeThresholdInfinity both keep scoring below but never
	// cross into banning.
	score, active := t.rules[rule]
	if !active {
		return 0, "", false
	}
	r, _ := LookupRule(rule)
	switch r.Object {
	case InboundPeer:
		if !inbound {
			return 0, "", false
		}
	case OutboundPeer:
		if inbound {
			return 0, "", false
		}
	}
	return score, r.Name, true
}

// applyLocked is the scoring core: score accumulation, the ban decision,
// and the linearized forensics append. The caller MUST hold s.mu, and s
// must be id's shard. Both the direct MisbehavingCtx path and Batch.Flush
// run this exact body, which is what makes the batched path's Tracker
// exports byte-identical to the unbatched path's.
func (t *Tracker) applyLocked(s *trackerShard, id PeerID, rule RuleID, ruleName string, score int, mctx MisbehaviorContext) (total int, banned bool) {
	s.scores[id] += score
	total = s.scores[id]
	banned = t.cfg.Mode == ModeStandard && total >= t.cfg.BanThreshold
	if banned {
		delete(s.scores, id)
	}
	if t.cfg.Forensics == nil && t.cfg.OnRecord == nil {
		return total, banned // nobody consumes the record: skip the clock read and the fill
	}
	rec := BanRecord{
		At:            t.cfg.Clock(),
		Peer:          id,
		RuleID:        rule,
		Rule:          ruleName,
		Delta:         score,
		Score:         total,
		Banned:        banned,
		Command:       mctx.Command,
		TraceID:       mctx.TraceID,
		PayloadDigest: mctx.PayloadDigest,
		PayloadLen:    mctx.PayloadLen,
	}
	seq := t.cfg.Forensics.Append(rec)
	if t.cfg.OnRecord != nil {
		rec.Seq = seq
		t.cfg.OnRecord(rec)
	}
	return total, banned
}

// finish runs the post-lock side effects of one scoring hit (telemetry
// callbacks and the ban-list insertion) and assembles the Result.
func (t *Tracker) finish(id PeerID, rule RuleID, score, total int, banned bool) Result {
	if t.cfg.OnApplied != nil {
		t.cfg.OnApplied(id, rule, score, total)
	}
	res := Result{Applied: true, Score: total, Delta: score}
	if banned {
		res.Banned = true
		if t.cfg.OnBan != nil {
			t.cfg.OnBan(id, total)
		}
		t.banlist.Ban(id, t.cfg.BanDuration)
	}
	return res
}

// Score returns the peer's current ban score. Read-only: it takes the
// shard read lock, matching the IsBanned fast path, so health scrapes and
// eviction ranking never serialize against concurrent scoring.
func (t *Tracker) Score(id PeerID) int {
	s := t.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.scores[id]
}

// Forget drops the peer's score state (e.g. when it disconnects cleanly).
// The ban list is unaffected.
func (t *Tracker) Forget(id PeerID) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.scores, id)
	delete(s.good, id)
}

// IsBanned reports whether the identifier is currently banned.
func (t *Tracker) IsBanned(id PeerID) bool { return t.banlist.IsBanned(id) }

// AddGood credits the peer's good score — the paper's good-score mechanism
// increments by 1 for each valid BLOCK the peer delivers.
func (t *Tracker) AddGood(id PeerID) int {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.good[id]++
	return s.good[id]
}

// GoodScore returns the peer's accumulated good score. Read-only (RLock).
func (t *Tracker) GoodScore(id PeerID) int {
	s := t.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.good[id]
}

// Reputation returns goodScore - banScore, the non-binary peer-health
// ranking the paper suggests the retained scores could feed. Read-only
// (RLock): RankPeers calls this once per connected peer per eviction
// decision, and must not stall the scoring write path.
func (t *Tracker) Reputation(id PeerID) int {
	s := t.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.good[id] - s.scores[id]
}

// TrackedPeers returns how many peers currently hold a non-zero ban score,
// merging per-shard snapshots (consistent per shard, not one atomic cut —
// the same guarantee callers had against concurrent scoring before).
func (t *Tracker) TrackedPeers() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		n += len(s.scores)
		s.mu.RUnlock()
	}
	return n
}
