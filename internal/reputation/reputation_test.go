package reputation

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/vclock"
)

// virtualClock is a manually advanced vclock.Clock. The engine only reads
// Now; the remaining methods exist to satisfy the interface.
type virtualClock struct {
	mu sync.Mutex
	at time.Time
}

func newVirtualClock() *virtualClock {
	return &virtualClock{at: time.Unix(1700000000, 0)}
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.at
}

func (c *virtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.at = c.at.Add(d)
	c.mu.Unlock()
}

func (c *virtualClock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }
func (c *virtualClock) Until(t time.Time) time.Duration { return t.Sub(c.Now()) }
func (c *virtualClock) Sleep(d time.Duration)           { c.Advance(d) }
func (c *virtualClock) AfterFunc(d time.Duration, f func()) vclock.Timer {
	return vclock.System().AfterFunc(0, f)
}

func (c *virtualClock) After(d time.Duration) <-chan time.Time {
	c.Advance(d)
	ch := make(chan time.Time, 1)
	ch <- c.Now()
	return ch
}

func TestMisbehaviorDecaysTrustPersists(t *testing.T) {
	clock := newVirtualClock()
	e := New(Config{Clock: clock, HalfLife: 10 * time.Minute})

	id := core.PeerID("203.0.113.7:8333")
	e.Credit(id, CreditBlock)
	e.Penalize(id, 40)

	s := e.Score(id)
	if s.Misbehavior != 40 || s.Trust != CreditBlock {
		t.Fatalf("fresh state: got %+v", s)
	}

	clock.Advance(10 * time.Minute)
	s = e.Score(id)
	if s.Misbehavior < 19.9 || s.Misbehavior > 20.1 {
		t.Fatalf("after one half-life misbehavior = %v, want ~20", s.Misbehavior)
	}
	if s.Trust != CreditBlock {
		t.Fatalf("trust decayed to %v; trust must persist", s.Trust)
	}

	clock.Advance(100 * 10 * time.Minute)
	s = e.Score(id)
	if s.Misbehavior > 1e-9 {
		t.Fatalf("after 100 half-lives misbehavior = %v, want ~0", s.Misbehavior)
	}
	if s.Reputation < float64(CreditBlock)-1e-9 {
		t.Fatalf("reputation = %v, want trust to dominate after decay", s.Reputation)
	}
}

func TestTrustIsCapped(t *testing.T) {
	e := New(Config{Clock: newVirtualClock(), TrustCap: 10})
	id := core.PeerID("203.0.113.7:8333")
	for i := 0; i < 100; i++ {
		e.Credit(id, CreditBlock)
	}
	if s := e.Score(id); s.Trust != 10 {
		t.Fatalf("trust = %v, want capped at 10", s.Trust)
	}
}

func TestFramedIdentityCannotExhaustGroup(t *testing.T) {
	// The Defamation counter: unlimited spoofed misbehavior against ONE
	// identifier charges its netgroup at most PeerContributionCap, so the
	// group never leaves healthy standing.
	clock := newVirtualClock()
	e := New(Config{Clock: clock})

	innocent := core.PeerID("10.9.0.1:8333")
	for i := 0; i < 1000; i++ {
		e.Penalize(innocent, 100)
	}
	pressure, status := e.GroupPressure(e.GroupOf(innocent))
	if pressure > e.Config().PeerContributionCap+1e-9 {
		t.Fatalf("one identity charged its group %v, cap is %v", pressure, e.Config().PeerContributionCap)
	}
	if status != GroupHealthy {
		t.Fatalf("group status = %v after framing one identity, want healthy", status)
	}
	if v := e.Admission(innocent); v != VerdictAdmit {
		t.Fatalf("admission verdict for framed identity = %v, want admit", v)
	}
}

func TestSybilSwarmExhaustsGroupBudget(t *testing.T) {
	clock := newVirtualClock()
	var bannedGroup string
	e := New(Config{Clock: clock, OnGroupBan: func(g string, _ float64) { bannedGroup = g }})

	need := e.IdentitiesToExhaust()
	if need != 40 {
		t.Fatalf("IdentitiesToExhaust = %d with defaults, want 40", need)
	}

	// Parallel-Sybil shape: distinct ports (and hosts) inside one /16,
	// each saturating its per-identity cap.
	ids := make([]core.PeerID, 0, need)
	var res PenaltyResult
	for i := 0; res.GroupStatus != GroupBanned; i++ {
		if i > need {
			t.Fatalf("group not banned after %d identities, expected %d", i, need)
		}
		id := core.PeerID("10.7." + strconv.Itoa(i) + ".1:49152")
		ids = append(ids, id)
		for j := 0; j < 2; j++ { // two hits saturate the 100-point cap
			res = e.Penalize(id, 100)
		}
	}
	if len(ids) != need {
		t.Fatalf("group banned after %d identities, want exactly %d", len(ids), need)
	}
	if bannedGroup != "ip4:10.7/16" {
		t.Fatalf("OnGroupBan fired for %q, want ip4:10.7/16", bannedGroup)
	}

	// Every member of the prefix — including a fresh, never-seen identity —
	// is now rejected; an unrelated prefix is not.
	if v := e.Admission("10.7.250.250:65535"); v != VerdictReject {
		t.Fatalf("fresh identity in banned /16: verdict %v, want reject", v)
	}
	if v := e.Admission("10.8.0.1:8333"); v != VerdictAdmit {
		t.Fatalf("identity in clean /16: verdict %v, want admit", v)
	}

	// The ban is time-boxed; decay during the ban window drains pressure.
	clock.Advance(e.Config().GroupBanDuration + time.Second)
	if v := e.Admission("10.7.250.250:65535"); v == VerdictReject {
		t.Fatalf("banned /16 still rejecting after ban duration elapsed")
	}
}

func TestProbationPrecedesBan(t *testing.T) {
	clock := newVirtualClock()
	e := New(Config{Clock: clock, GroupBudget: 400, PeerContributionCap: 100})

	// Two saturated identities = 200 = half the 400 budget → probation.
	e.Penalize("10.5.1.1:1", 100)
	res := e.Penalize("10.5.1.2:1", 100)
	if res.GroupStatus != GroupProbation {
		t.Fatalf("at half budget status = %v, want probation", res.GroupStatus)
	}
	if v := e.Admission("10.5.9.9:1"); v != VerdictProbation {
		t.Fatalf("admission verdict = %v, want probation", v)
	}

	e.Penalize("10.5.1.3:1", 100)
	res = e.Penalize("10.5.1.4:1", 100)
	if res.GroupStatus != GroupBanned || !res.GroupBanned {
		t.Fatalf("at full budget got %+v, want banned on this call", res)
	}
}

// TestTrackedGroupsCountsByStatus runs TrackedGroups over held netgroups:
// under make test-poolpoison it is the reputation suite's walk of group
// shard → netgroup nesting.
func TestTrackedGroupsCountsByStatus(t *testing.T) {
	e := New(Config{Clock: newVirtualClock(), GroupBudget: 100, PeerContributionCap: 100})
	e.Penalize("10.1.0.1:1", 10)  // healthy
	e.Penalize("10.2.0.1:1", 50)  // probation at half the budget
	e.Penalize("10.3.0.1:1", 100) // banned
	if total, probation, banned := e.TrackedGroups(); total != 3 || probation != 1 || banned != 1 {
		t.Fatalf("TrackedGroups = %d, %d, %d; want 3 groups, 1 in probation, 1 banned", total, probation, banned)
	}
}

func TestSerialSybilChurnStillPaysGroupCost(t *testing.T) {
	// Serial Sybil: identities misbehave one at a time and "disconnect".
	// The engine has no Forget, so each burned identity's capped charge
	// stays pinned on the /16 until it decays — churn is not a reset.
	clock := newVirtualClock()
	e := New(Config{Clock: clock, GroupBudget: 400})
	for i := 0; i < 3; i++ {
		id := core.PeerID("10.6.0." + string(rune('1'+i)) + ":49152")
		e.Penalize(id, 100)
		e.Penalize(id, 100)
	}
	pressure, status := e.GroupPressure("ip4:10.6/16")
	if pressure < 300-1e-9 {
		t.Fatalf("group pressure = %v after 3 serial identities, want 300", pressure)
	}
	if status != GroupProbation {
		t.Fatalf("status = %v, want probation at 300/400", status)
	}
}

func TestPruneBelowKeepsHotState(t *testing.T) {
	clock := newVirtualClock()
	e := New(Config{Clock: clock})
	e.Penalize("10.1.0.1:1", 100)
	e.Credit("10.2.0.1:1", CreditBlock) // trusted peer must survive pruning
	e.Penalize("10.3.0.1:1", 1)

	clock.Advance(24 * time.Hour) // everything decays; trust persists
	peers, groups := e.PruneBelow(0.5)
	if peers != 2 || groups != 2 {
		t.Fatalf("pruned %d peers / %d groups, want 2/2 (trusted peer retained)", peers, groups)
	}
	if e.TrackedPeers() != 1 {
		t.Fatalf("tracked peers = %d, want the trusted survivor", e.TrackedPeers())
	}
	if s := e.Score("10.2.0.1:1"); s.Trust != CreditBlock {
		t.Fatalf("survivor trust = %v, want %v", s.Trust, float64(CreditBlock))
	}
}

func TestSnapshotOrdersAndCounts(t *testing.T) {
	clock := newVirtualClock()
	e := New(Config{Clock: clock})
	e.Penalize("10.1.0.1:1", 50)
	e.Credit("10.2.0.1:1", CreditBlock)
	e.Penalize("10.1.0.2:1", 10)

	snap := e.Snapshot()
	if len(snap.Peers) != 3 || len(snap.Groups) != 2 {
		t.Fatalf("snapshot has %d peers / %d groups, want 3/2", len(snap.Peers), len(snap.Groups))
	}
	// Peers ascend by reputation (eviction order): worst first.
	if snap.Peers[0].Peer != "10.1.0.1:1" || snap.Peers[2].Peer != "10.2.0.1:1" {
		t.Fatalf("peer order %v, want worst-first", []core.PeerID{snap.Peers[0].Peer, snap.Peers[1].Peer, snap.Peers[2].Peer})
	}
	// Groups descend by pressure.
	if snap.Groups[0].Group != "ip4:10.1/16" {
		t.Fatalf("group order starts with %q, want the pressured /16", snap.Groups[0].Group)
	}
	if snap.Penalties != 2 || snap.Credits != 1 {
		t.Fatalf("totals penalties=%d credits=%d, want 2/1", snap.Penalties, snap.Credits)
	}
}

func TestConcurrentPenalizeIsRaceFreeAndConserved(t *testing.T) {
	e := New(Config{Clock: newVirtualClock()})
	const workers = 8
	const hits = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := core.PeerID("10.4.0." + string(rune('1'+w)) + ":1")
			for i := 0; i < hits; i++ {
				e.Penalize(id, 1)
				e.Credit(id, 1)
				e.Score(id)
				e.Admission(id)
			}
		}()
	}
	wg.Wait()
	penalties, credits, _, _ := e.Totals()
	if penalties != workers*hits || credits != workers*hits {
		t.Fatalf("totals %d/%d, want %d each", penalties, credits, workers*hits)
	}
	// No decay occurred (virtual clock never advanced): pressure must be
	// exactly the sum of capped contributions.
	pressure, _ := e.GroupPressure("ip4:10.4/16")
	want := float64(workers) * e.Config().PeerContributionCap
	if pressure != want {
		t.Fatalf("group pressure = %v, want exactly %v", pressure, want)
	}
}

func BenchmarkReputationUpdate(b *testing.B) {
	e := New(Config{Clock: newVirtualClock()})
	id := core.PeerID("203.0.113.7:8333")
	e.Penalize(id, 1) // create state outside the measured loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Penalize(id, 1)
	}
}
