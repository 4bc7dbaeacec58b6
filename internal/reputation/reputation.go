// Package reputation is the evidence-backed netgroup reputation engine —
// the countermeasure layer the paper's §VIII analysis motivates. It sits on
// top of the core ban-score Tracker and replaces the raw good−bad integer
// with three mechanisms the Defamation and Sybil attacks cannot cheaply
// game:
//
//  1. Per-peer trust state: good score rises with useful work (valid
//     BLOCK/TX delivery) while misbehavior decays exponentially over
//     injected vclock time, so a single framed burst fades instead of
//     permanently condemning an identifier.
//  2. Evidence-carrying scoring: every penalty the node feeds the engine is
//     mirrored in the core forensics Ledger with the offending message's
//     command, payload digest, and trace ID — "prove why this peer was
//     penalized" is answerable from /debug/bans.
//  3. Netgroup aggregation: misbehavior is charged to the peer's IPv4 /16
//     or IPv6 /32 group, capped per identity, so serial/parallel Sybil
//     identities from one prefix draw down a shared budget. Burning one
//     [IP:Port] per identity no longer resets the price of attack; the
//     whole prefix degrades to probation and then a collective ban.
//
// The package is in the banlint wallclock analyzer's scope: it never reads
// ambient time. All decay arithmetic runs off an injected vclock.Clock, so
// identical clock schedules yield identical scores — across runs and across
// shard counts.
package reputation

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"banscore/internal/core"
	"banscore/internal/lockrank"
	"banscore/internal/vclock"
)

// Defaults. The contribution cap is deliberately aligned with the
// standard ban threshold: framing one innocent identifier buys an attacker
// at most one "ban's worth" of group damage, while exhausting a netgroup
// budget takes DefaultGroupBudget/DefaultPeerContributionCap distinct
// identities — the engine's headline property.
const (
	// DefaultHalfLife is the misbehavior decay half-life.
	DefaultHalfLife = 10 * time.Minute

	// DefaultTrustCap bounds accumulated trust so long-lived peers cannot
	// bank unlimited immunity.
	DefaultTrustCap = 100

	// DefaultPeerContributionCap is the most misbehavior one identity can
	// charge its netgroup at any instant.
	DefaultPeerContributionCap = 100

	// DefaultGroupBudget is the netgroup misbehavior budget; pressure at
	// or above it bans the group collectively.
	DefaultGroupBudget = 4000

	// DefaultProbationFraction of the budget at which a group enters
	// probation.
	DefaultProbationFraction = 0.5

	// DefaultGroupBanDuration bounds a collective netgroup ban.
	DefaultGroupBanDuration = time.Hour
)

// Trust credit weights for the useful-work classes the node reports.
const (
	// CreditBlock is the trust earned by delivering a valid block — the
	// paper's good-score unit, scaled up because block work is hard.
	CreditBlock = 5

	// CreditTx is the trust earned by delivering a valid, accepted
	// transaction.
	CreditTx = 1
)

// Verdict is the engine's admission decision for a connecting identifier.
type Verdict int

// Admission verdicts.
const (
	// VerdictAdmit: the identifier's netgroup is in good standing.
	VerdictAdmit Verdict = iota

	// VerdictProbation: the netgroup has drawn down a significant share
	// of its budget; admit, but deprioritize (first to evict, counted).
	VerdictProbation

	// VerdictReject: the netgroup is collectively banned.
	VerdictReject
)

// String returns the verdict name.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admit"
	case VerdictProbation:
		return "probation"
	case VerdictReject:
		return "reject"
	}
	return "unknown"
}

// GroupStatus classifies a netgroup's standing.
type GroupStatus int

// Netgroup states.
const (
	GroupHealthy GroupStatus = iota
	GroupProbation
	GroupBanned
)

// String returns the status name.
func (s GroupStatus) String() string {
	switch s {
	case GroupHealthy:
		return "healthy"
	case GroupProbation:
		return "probation"
	case GroupBanned:
		return "banned"
	}
	return "unknown"
}

// Config parameterizes an Engine. The zero value selects every default.
type Config struct {
	// Clock injects time for all decay arithmetic. Nil selects the system
	// clock; tests and the deterministic experiment harness install a
	// virtual one.
	Clock vclock.Clock

	// HalfLife of misbehavior decay. Zero selects DefaultHalfLife.
	HalfLife time.Duration

	// TrustCap bounds per-peer trust. Zero selects DefaultTrustCap.
	TrustCap float64

	// PeerContributionCap bounds one identity's instantaneous charge
	// against its netgroup. Zero selects DefaultPeerContributionCap.
	PeerContributionCap float64

	// GroupBudget is the netgroup misbehavior budget. Zero selects
	// DefaultGroupBudget.
	GroupBudget float64

	// GroupBanDuration of a collective netgroup ban. Zero selects
	// DefaultGroupBanDuration.
	GroupBanDuration time.Duration

	// ShardCount overrides the lock-shard count (rounded up to a power of
	// two). Zero selects a GOMAXPROCS-scaled default. Scores are
	// shard-count independent; this exists for determinism tests and
	// benchmarks.
	ShardCount int

	// OnGroupBan, if set, is invoked — outside all engine locks — when a
	// penalty pushes a netgroup over its budget.
	OnGroupBan func(group string, pressure float64)

	// Recorder, if set, receives the engine's durable event stream: one
	// PenaltyRecord per Penalize (emitted under the group mutex, after
	// both the peer and group halves are computed) and one CreditRecord
	// per Credit (emitted under the peer shard lock). See persist.go for
	// the ordering/idempotency contract; implementations must be fast and
	// non-blocking.
	Recorder Recorder
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = vclock.System()
	}
	if c.HalfLife == 0 {
		c.HalfLife = DefaultHalfLife
	}
	if c.TrustCap == 0 {
		c.TrustCap = DefaultTrustCap
	}
	if c.PeerContributionCap == 0 {
		c.PeerContributionCap = DefaultPeerContributionCap
	}
	if c.GroupBudget == 0 {
		c.GroupBudget = DefaultGroupBudget
	}
	if c.GroupBanDuration == 0 {
		c.GroupBanDuration = DefaultGroupBanDuration
	}
}

// Score is a peer's reputation view at one instant.
type Score struct {
	// Trust accumulated from useful work (capped).
	Trust float64

	// Misbehavior remaining after exponential decay.
	Misbehavior float64

	// Reputation = Trust − Misbehavior, the ranking the connection
	// manager consumes.
	Reputation float64
}

// PenaltyResult reports what one Penalize call did.
type PenaltyResult struct {
	// Misbehavior is the peer's decayed misbehavior after the hit.
	Misbehavior float64

	// GroupPressure is the netgroup's decayed budget draw-down after the
	// hit.
	GroupPressure float64

	// GroupStatus after the hit.
	GroupStatus GroupStatus

	// GroupBanned is true when THIS call pushed the group over budget.
	GroupBanned bool
}

// peerState is one identity's reputation record. It outlives disconnects on
// purpose: remembering churned identities is what makes the netgroup charge
// stick across serial Sybil reconnects.
type peerState struct {
	group *netgroup

	trust       float64
	mis         float64   // decayed misbehavior as of last
	contributed float64   // decayed charge currently held against group
	last        time.Time // instant mis/contributed are valued at

	penalties uint64
	credits   uint64
}

// netgroup aggregates the budget of one IPv4 /16 or IPv6 /32 prefix.
type netgroup struct {
	mu lockrank.Mutex[lockrank.Netgroup]

	key         string
	pressure    float64   // decayed sum of capped per-identity charges
	last        time.Time // instant pressure is valued at
	bannedUntil time.Time
	identities  int // distinct peers that ever charged this group
	bans        uint64
}

type peerShard struct {
	mu lockrank.RWMutex[lockrank.PeerShard]
	m  map[core.PeerID]*peerState
}

type groupShard struct {
	mu lockrank.Mutex[lockrank.GroupShard]
	m  map[string]*netgroup
}

// Engine is the reputation engine. Safe for concurrent use: peer state and
// netgroup state are independently sharded by identifier hash, and the only
// lock held across both is never taken in the opposite order (peer shard →
// group shard → group).
type Engine struct {
	cfg         Config
	invHalfLife float64 // 1 / half-life, in 1/seconds

	pmask  uint32
	peers  []peerShard
	gmask  uint32
	groups []groupShard

	penalties atomic.Uint64
	credits   atomic.Uint64
	groupBans atomic.Uint64
	rejected  atomic.Uint64
}

// New builds an Engine.
func New(cfg Config) *Engine {
	cfg.fillDefaults()
	n := shardCount(cfg.ShardCount)
	e := &Engine{
		cfg:         cfg,
		invHalfLife: 1 / cfg.HalfLife.Seconds(),
		pmask:       uint32(n - 1),
		peers:       make([]peerShard, n),
		gmask:       uint32(n - 1),
		groups:      make([]groupShard, n),
	}
	for i := range e.peers {
		e.peers[i].m = make(map[core.PeerID]*peerState)
	}
	for i := range e.groups {
		e.groups[i].m = make(map[string]*netgroup)
	}
	return e
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// ShardCount returns how many independently locked shards back each of the
// peer and netgroup maps.
func (e *Engine) ShardCount() int { return len(e.peers) }

// IdentitiesToExhaust returns how many distinct identities must misbehave
// maximally to exhaust one netgroup budget — the engine's Sybil price,
// ⌈GroupBudget / PeerContributionCap⌉.
func (e *Engine) IdentitiesToExhaust() int {
	return int(math.Ceil(e.cfg.GroupBudget / e.cfg.PeerContributionCap))
}

// decay returns v decayed from instant `from` to instant `to` under the
// configured half-life. A zero `from` (fresh state) and a non-advancing
// clock both decay by exactly 1.
func (e *Engine) decay(v float64, from, to time.Time) float64 {
	if v == 0 || from.IsZero() || !to.After(from) {
		return v
	}
	dt := to.Sub(from).Seconds()
	return v * math.Exp2(-dt*e.invHalfLife)
}

func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (e *Engine) peerShard(id core.PeerID) *peerShard {
	return &e.peers[fnv32(string(id))&e.pmask]
}

func (e *Engine) groupShard(key string) *groupShard {
	return &e.groups[fnv32(key)&e.gmask]
}

// peer returns the identity's state, creating it (and its netgroup) on
// first sight. Steady-state callers pay a map read under the shard RLock.
func (e *Engine) peer(id core.PeerID) *peerState {
	s := e.peerShard(id)
	s.mu.RLock()
	p := s.m[id]
	s.mu.RUnlock()
	if p != nil {
		return p
	}
	g := e.group(NetgroupKey(id))
	s.mu.Lock()
	if p = s.m[id]; p == nil {
		p = &peerState{group: g}
		s.m[id] = p
	}
	s.mu.Unlock()
	return p
}

// group returns the netgroup record for key, creating it on first sight.
func (e *Engine) group(key string) *netgroup {
	s := e.groupShard(key)
	s.mu.Lock()
	g := s.m[key]
	if g == nil {
		g = &netgroup{key: key}
		s.m[key] = g
	}
	s.mu.Unlock()
	return g
}

// lookupGroup returns the netgroup record for key without creating it.
func (e *Engine) lookupGroup(key string) *netgroup {
	s := e.groupShard(key)
	s.mu.Lock()
	g := s.m[key]
	s.mu.Unlock()
	return g
}

// Penalize charges weight misbehavior points against the identity and its
// netgroup. The caller (the node's misbehave path) invokes it only for rule
// hits the tracker actually applied, so every penalty has a corresponding
// evidence record in the forensics ledger. The per-identity group charge is
// capped: a framed identifier can cost its prefix at most
// PeerContributionCap no matter how many messages are spoofed in its name.
func (e *Engine) Penalize(id core.PeerID, weight int) PenaltyResult {
	now := e.cfg.Clock.Now()
	p := e.peer(id)

	s := e.peerShard(id)
	s.mu.Lock()
	firstCharge := p.penalties == 0
	p.mis = e.decay(p.mis, p.last, now) + float64(weight)
	p.contributed = e.decay(p.contributed, p.last, now)
	p.last = now
	contrib := p.mis
	if contrib > e.cfg.PeerContributionCap {
		contrib = e.cfg.PeerContributionCap
	}
	delta := contrib - p.contributed
	if delta < 0 {
		delta = 0
	}
	p.contributed += delta
	p.penalties++
	seq := p.penalties
	mis := p.mis
	contributed := p.contributed
	g := p.group
	s.mu.Unlock()

	res := PenaltyResult{Misbehavior: mis}
	var justBanned bool
	g.mu.Lock()
	g.pressure = e.decay(g.pressure, g.last, now) + delta
	g.last = now
	if firstCharge {
		g.identities++
	}
	if g.pressure >= e.cfg.GroupBudget && now.After(g.bannedUntil) {
		g.bannedUntil = now.Add(e.cfg.GroupBanDuration)
		g.bans++
		justBanned = true
	}
	res.GroupPressure = g.pressure
	res.GroupStatus = e.groupStatusLocked(g, now)
	res.GroupBanned = justBanned
	if e.cfg.Recorder != nil {
		// Emitted while g.mu is held: the WAL observes group absolutes in
		// exactly the order the group computed them, which is what makes
		// last-write-wins replay converge.
		e.cfg.Recorder.RecordPenalty(PenaltyRecord{
			ID:          id,
			Seq:         seq,
			At:          now,
			Mis:         mis,
			Contributed: contributed,
			Group:       g.key,
			Pressure:    g.pressure,
			BannedUntil: g.bannedUntil,
			Identities:  g.identities,
			Bans:        g.bans,
		})
	}
	g.mu.Unlock()

	e.penalties.Add(1)
	if justBanned {
		e.groupBans.Add(1)
		if e.cfg.OnGroupBan != nil {
			e.cfg.OnGroupBan(g.key, res.GroupPressure)
		}
	}
	return res
}

// Credit raises the identity's trust for one unit of useful work
// (CreditBlock, CreditTx), capped at TrustCap. Trust does not decay: the
// engine forgets grudges, not service.
func (e *Engine) Credit(id core.PeerID, weight int) float64 {
	p := e.peer(id)
	s := e.peerShard(id)
	s.mu.Lock()
	p.trust += float64(weight)
	if p.trust > e.cfg.TrustCap {
		p.trust = e.cfg.TrustCap
	}
	p.credits++
	t := p.trust
	if e.cfg.Recorder != nil {
		e.cfg.Recorder.RecordCredit(CreditRecord{ID: id, Seq: p.credits, Trust: t})
	}
	s.mu.Unlock()
	e.credits.Add(1)
	return t
}

// Score returns the identity's reputation view at the current clock
// reading. Unknown identities score zero across the board.
func (e *Engine) Score(id core.PeerID) Score {
	s := e.peerShard(id)
	s.mu.RLock()
	p := s.m[id]
	if p == nil {
		s.mu.RUnlock()
		return Score{}
	}
	now := e.cfg.Clock.Now()
	mis := e.decay(p.mis, p.last, now)
	trust := p.trust
	s.mu.RUnlock()
	return Score{Trust: trust, Misbehavior: mis, Reputation: trust - mis}
}

// GroupOf returns the identity's netgroup key (cached when the identity is
// known, derived otherwise).
func (e *Engine) GroupOf(id core.PeerID) string {
	s := e.peerShard(id)
	s.mu.RLock()
	p := s.m[id]
	s.mu.RUnlock()
	if p != nil {
		return p.group.key
	}
	return NetgroupKey(id)
}

// groupStatusLocked classifies g; g.mu must be held and g.pressure valued
// at now.
func (e *Engine) groupStatusLocked(g *netgroup, now time.Time) GroupStatus {
	switch {
	case now.Before(g.bannedUntil):
		return GroupBanned
	case g.pressure >= DefaultProbationFraction*e.cfg.GroupBudget:
		return GroupProbation
	}
	return GroupHealthy
}

// GroupPressure returns the netgroup's decayed budget draw-down and status.
// Unknown groups are healthy at zero.
func (e *Engine) GroupPressure(key string) (float64, GroupStatus) {
	g := e.lookupGroup(key)
	if g == nil {
		return 0, GroupHealthy
	}
	now := e.cfg.Clock.Now()
	g.mu.Lock()
	pressure := e.decay(g.pressure, g.last, now)
	g.pressure = pressure
	g.last = now
	status := e.groupStatusLocked(g, now)
	g.mu.Unlock()
	return pressure, status
}

// Admission is the connection manager's accept-time gate: the verdict for a
// new connection from id, judged by its netgroup's standing. The hot path —
// a known identity in a healthy group — is a shard RLock, a group lock, and
// float math; it allocates nothing.
func (e *Engine) Admission(id core.PeerID) Verdict {
	s := e.peerShard(id)
	s.mu.RLock()
	p := s.m[id]
	s.mu.RUnlock()
	var g *netgroup
	if p != nil {
		g = p.group
	} else if g = e.lookupGroup(NetgroupKey(id)); g == nil {
		return VerdictAdmit
	}
	now := e.cfg.Clock.Now()
	g.mu.Lock()
	g.pressure = e.decay(g.pressure, g.last, now)
	g.last = now
	status := e.groupStatusLocked(g, now)
	g.mu.Unlock()
	switch status {
	case GroupBanned:
		e.rejected.Add(1)
		return VerdictReject
	case GroupProbation:
		return VerdictProbation
	}
	return VerdictAdmit
}

// Forget is intentionally absent: reputation state must survive disconnects
// or serial Sybil identities would reset their netgroup charge for free.
// PruneBelow is the sanctioned way to bound memory.

// PruneBelow drops identities whose decayed misbehavior AND trust are both
// below eps, plus netgroups that are unbanned, below eps pressure, and no
// longer referenced by any surviving identity (a referenced group must stay
// in the map or the survivor's cached pointer would diverge from future
// lookups). It returns (peers, groups) pruned. Operators run it
// periodically; attackers gain nothing, since any state worth remembering
// is above eps by construction.
func (e *Engine) PruneBelow(eps float64) (int, int) {
	now := e.cfg.Clock.Now()
	peersPruned := 0
	referenced := make(map[string]struct{})
	for i := range e.peers {
		s := &e.peers[i]
		s.mu.Lock()
		for id, p := range s.m {
			if e.decay(p.mis, p.last, now) < eps && p.trust < eps {
				delete(s.m, id)
				peersPruned++
				continue
			}
			referenced[p.group.key] = struct{}{}
		}
		s.mu.Unlock()
	}
	groupsPruned := 0
	for i := range e.groups {
		s := &e.groups[i]
		s.mu.Lock()
		for key, g := range s.m {
			if _, live := referenced[key]; live {
				continue
			}
			g.mu.Lock()
			dead := now.After(g.bannedUntil) && e.decay(g.pressure, g.last, now) < eps
			g.mu.Unlock()
			if dead {
				delete(s.m, key)
				groupsPruned++
			}
		}
		s.mu.Unlock()
	}
	return peersPruned, groupsPruned
}

// Totals returns the engine's lifetime counters: penalties applied, trust
// credits granted, collective group bans, and admissions rejected.
func (e *Engine) Totals() (penalties, credits, groupBans, rejected uint64) {
	return e.penalties.Load(), e.credits.Load(), e.groupBans.Load(), e.rejected.Load()
}

// TrackedPeers returns how many identities currently hold reputation state.
func (e *Engine) TrackedPeers() int {
	n := 0
	for i := range e.peers {
		s := &e.peers[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// TrackedGroups returns how many netgroups currently hold state, plus how
// many of them are in probation and banned at the current clock reading.
func (e *Engine) TrackedGroups() (total, probation, banned int) {
	now := e.cfg.Clock.Now()
	for i := range e.groups {
		s := &e.groups[i]
		s.mu.Lock()
		for _, g := range s.m {
			g.mu.Lock()
			g.pressure = e.decay(g.pressure, g.last, now)
			g.last = now
			switch e.groupStatusLocked(g, now) {
			case GroupBanned:
				banned++
			case GroupProbation:
				probation++
			}
			g.mu.Unlock()
			total++
		}
		s.mu.Unlock()
	}
	return total, probation, banned
}

// shardCount resolves the configured shard count: the requested value
// rounded up to a power of two, or a GOMAXPROCS-scaled default clamped to
// [8, 256] (the same envelope as the core tracker's shards).
func shardCount(requested int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 4
	}
	if n < 8 {
		n = 8
	}
	if n > 256 {
		n = 256
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}
