package core

import (
	"net"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

// mockClock is an adjustable time source.
type mockClock struct{ at time.Time }

func newMockClock() *mockClock               { return &mockClock{at: time.Unix(1700000000, 0)} }
func (c *mockClock) Now() time.Time          { return c.at }
func (c *mockClock) Advance(d time.Duration) { c.at = c.at.Add(d) }

func TestRuleCatalogMatchesTable1(t *testing.T) {
	rules := Catalog()
	if len(rules) != 19 {
		t.Fatalf("catalog has %d rules, want the 19 Table I rows", len(rules))
	}

	// Spot-check the critical rows of Table I.
	checks := []struct {
		id     RuleID
		score  int
		object BanObject
		typ    MisbehaviorType
	}{
		{BlockMutated, 100, AnyPeer, MisbehaviorInvalid},
		{BlockCachedInvalid, 100, OutboundPeer, MisbehaviorInvalid},
		{BlockPrevInvalid, 100, AnyPeer, MisbehaviorInvalid},
		{BlockPrevMissing, 10, AnyPeer, MisbehaviorInvalid},
		{TxInvalidSegWit, 100, AnyPeer, MisbehaviorInvalid},
		{GetBlockTxnOutOfBounds, 100, AnyPeer, MisbehaviorOversize},
		{HeadersNonConnecting, 20, AnyPeer, MisbehaviorDisorder},
		{HeadersNonContinuous, 20, AnyPeer, MisbehaviorDisorder},
		{HeadersOversize, 20, AnyPeer, MisbehaviorOversize},
		{AddrOversize, 20, AnyPeer, MisbehaviorOversize},
		{InvOversize, 20, AnyPeer, MisbehaviorOversize},
		{GetDataOversize, 20, AnyPeer, MisbehaviorOversize},
		{CmpctBlockInvalid, 100, AnyPeer, MisbehaviorInvalid},
		{FilterLoadOversize, 100, AnyPeer, MisbehaviorOversize},
		{FilterAddOversize, 100, AnyPeer, MisbehaviorOversize},
		{VersionDuplicate, 1, InboundPeer, MisbehaviorRepeat},
		{MessageBeforeVersion, 1, InboundPeer, MisbehaviorDisorder},
		{MessageBeforeVerack, 1, InboundPeer, MisbehaviorDisorder},
	}
	for _, c := range checks {
		r, ok := LookupRule(c.id)
		if !ok {
			t.Errorf("rule %v missing from catalog", c.id)
			continue
		}
		if s, ok := r.ScoreIn(V0_20_0); !ok || s != c.score {
			t.Errorf("%v score in 0.20.0 = %d,%v, want %d", c.id, s, ok, c.score)
		}
		if r.Object != c.object {
			t.Errorf("%v object = %v, want %v", c.id, r.Object, c.object)
		}
		if r.Type != c.typ {
			t.Errorf("%v type = %v, want %v", c.id, r.Type, c.typ)
		}
	}
}

func TestRuleDeprecationAcrossVersions(t *testing.T) {
	tests := []struct {
		id   RuleID
		in20 bool
		in21 bool
		in22 bool
	}{
		{BlockMutated, true, true, true},
		{FilterAddNoBloomVersion, true, false, false},
		{VersionDuplicate, true, true, false},
		{MessageBeforeVersion, true, true, false},
		{MessageBeforeVerack, true, false, false},
	}
	for _, tt := range tests {
		r, _ := LookupRule(tt.id)
		if _, ok := r.ScoreIn(V0_20_0); ok != tt.in20 {
			t.Errorf("%v in 0.20.0 = %v, want %v", tt.id, ok, tt.in20)
		}
		if _, ok := r.ScoreIn(V0_21_0); ok != tt.in21 {
			t.Errorf("%v in 0.21.0 = %v, want %v", tt.id, ok, tt.in21)
		}
		if _, ok := r.ScoreIn(V0_22_0); ok != tt.in22 {
			t.Errorf("%v in 0.22.0 = %v, want %v", tt.id, ok, tt.in22)
		}
	}
}

func TestScoredMessageTypesIs12Of26(t *testing.T) {
	types := ScoredMessageTypes(V0_20_0)
	if len(types) != 12 {
		t.Errorf("0.20.0 scored message types = %d (%v), want 12 per the paper", len(types), types)
	}
	if MessageTypeCount != 26 {
		t.Error("developer reference lists 26 message types")
	}
	// VERACK rules are gone by 0.21, VERSION rules by 0.22.
	if got := len(ScoredMessageTypes(V0_21_0)); got != 11 {
		t.Errorf("0.21.0 scored message types = %d, want 11", got)
	}
	if got := len(ScoredMessageTypes(V0_22_0)); got != 10 {
		t.Errorf("0.22.0 scored message types = %d, want 10", got)
	}
}

// misbehave scores one hit with no forensic context: the tests here pin
// score arithmetic and ban decisions, not what the ledger records.
func misbehave(t *Tracker, id PeerID, inbound bool, rule RuleID) Result {
	return t.MisbehavingCtx(id, inbound, rule, MisbehaviorContext{})
}

func TestTrackerBansAtThreshold(t *testing.T) {
	clock := newMockClock()
	var bannedID PeerID
	tr := NewTracker(Config{
		Clock: clock.Now,
		OnBan: func(id PeerID, score int) { bannedID = id },
	})
	peer := PeerIDFromAddr("10.0.0.2:50001")

	// VERSION duplicate scores 1: needs 100 messages to ban (Fig. 8).
	for i := 1; i <= 99; i++ {
		res := misbehave(tr, peer, true, VersionDuplicate)
		if !res.Applied || res.Banned {
			t.Fatalf("message %d: res = %+v", i, res)
		}
		if res.Score != i {
			t.Fatalf("score after %d messages = %d", i, res.Score)
		}
	}
	res := misbehave(tr, peer, true, VersionDuplicate)
	if !res.Banned || res.Score != 100 {
		t.Fatalf("100th message: res = %+v, want ban at 100", res)
	}
	if bannedID != peer {
		t.Error("OnBan callback not invoked with the peer id")
	}
	if !tr.IsBanned(peer) {
		t.Error("peer not in ban list")
	}
	// Score state is dropped after the ban.
	if tr.Score(peer) != 0 {
		t.Errorf("post-ban score = %d, want 0", tr.Score(peer))
	}
}

func TestTrackerSingleShotBanRules(t *testing.T) {
	tr := NewTracker(Config{Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	res := misbehave(tr, peer, true, BlockMutated)
	if !res.Banned {
		t.Errorf("mutated block (100) should ban instantly: %+v", res)
	}
}

func TestTrackerObjectOfBanRestrictions(t *testing.T) {
	tr := NewTracker(Config{Clock: newMockClock().Now})
	inbound := PeerIDFromAddr("10.0.0.2:50001")
	outbound := PeerIDFromAddr("10.0.0.3:8333")

	// BlockCachedInvalid only applies to outbound peers.
	if res := misbehave(tr, inbound, true, BlockCachedInvalid); res.Applied {
		t.Error("outbound-only rule applied to inbound peer")
	}
	if res := misbehave(tr, outbound, false, BlockCachedInvalid); !res.Applied || !res.Banned {
		t.Errorf("outbound-only rule on outbound peer = %+v", res)
	}

	// VERSION rules only apply to inbound peers.
	if res := misbehave(tr, outbound, false, VersionDuplicate); res.Applied {
		t.Error("inbound-only rule applied to outbound peer")
	}
}

func TestTrackerDeprecatedRuleNotApplied(t *testing.T) {
	tr := NewTracker(Config{Version: V0_22_0, Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	if res := misbehave(tr, peer, true, VersionDuplicate); res.Applied {
		t.Error("VERSION rule applied in 0.22.0 where it is deprecated")
	}
	// An always-present rule still applies.
	if res := misbehave(tr, peer, true, BlockMutated); !res.Applied {
		t.Error("BlockMutated missing in 0.22.0")
	}
}

func TestTrackerAccumulatesMixedRules(t *testing.T) {
	tr := NewTracker(Config{Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	misbehave(tr, peer, true, AddrOversize)     // +20
	misbehave(tr, peer, true, HeadersOversize)  // +20
	misbehave(tr, peer, true, BlockPrevMissing) // +10
	if got := tr.Score(peer); got != 50 {
		t.Errorf("mixed score = %d, want 50", got)
	}
	res := misbehave(tr, peer, true, InvOversize) // +20 -> 70
	if res.Banned {
		t.Error("banned below threshold")
	}
	res = misbehave(tr, peer, true, GetBlockTxnOutOfBounds) // +100 -> 170
	if !res.Banned || res.Score != 170 {
		t.Errorf("threshold crossing = %+v", res)
	}
}

func TestModeThresholdInfinityNeverBans(t *testing.T) {
	tr := NewTracker(Config{Mode: ModeThresholdInfinity, Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	for i := 0; i < 10; i++ {
		res := misbehave(tr, peer, true, BlockMutated)
		if res.Banned {
			t.Fatal("threshold-infinity mode banned a peer")
		}
		if !res.Applied {
			t.Fatal("threshold-infinity mode stopped tracking")
		}
	}
	if got := tr.Score(peer); got != 1000 {
		t.Errorf("score = %d, want 1000 (tracking continues)", got)
	}
	if tr.IsBanned(peer) {
		t.Error("peer banned in threshold-infinity mode")
	}
}

func TestModeDisabledTracksNothing(t *testing.T) {
	tr := NewTracker(Config{Mode: ModeDisabled, Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	res := misbehave(tr, peer, true, BlockMutated)
	if res.Applied || res.Banned || res.Score != 0 {
		t.Errorf("disabled mode result = %+v", res)
	}
	if tr.Score(peer) != 0 || tr.TrackedPeers() != 0 {
		t.Error("disabled mode kept state")
	}
}

func TestModeGoodScore(t *testing.T) {
	tr := NewTracker(Config{Mode: ModeGoodScore, Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	// Misbehavior never bans.
	res := misbehave(tr, peer, true, BlockMutated)
	if res.Applied || res.Banned {
		t.Errorf("good-score mode result = %+v", res)
	}
	// Credit accrues per valid block.
	for i := 1; i <= 3; i++ {
		if got := tr.AddGood(peer); got != i {
			t.Errorf("good score after %d blocks = %d", i, got)
		}
	}
	if tr.GoodScore(peer) != 3 {
		t.Errorf("GoodScore = %d", tr.GoodScore(peer))
	}
	if tr.Reputation(peer) != 3 {
		t.Errorf("Reputation = %d", tr.Reputation(peer))
	}
}

func TestBanExpiry(t *testing.T) {
	clock := newMockClock()
	tr := NewTracker(Config{Clock: clock.Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	misbehave(tr, peer, true, BlockMutated)
	if !tr.IsBanned(peer) {
		t.Fatal("not banned")
	}
	clock.Advance(23 * time.Hour)
	if !tr.IsBanned(peer) {
		t.Error("ban expired early")
	}
	clock.Advance(90 * time.Minute)
	if tr.IsBanned(peer) {
		t.Error("24h ban did not expire")
	}
}

func TestForget(t *testing.T) {
	tr := NewTracker(Config{Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	misbehave(tr, peer, true, AddrOversize)
	tr.AddGood(peer)
	tr.Forget(peer)
	if tr.Score(peer) != 0 || tr.GoodScore(peer) != 0 {
		t.Error("Forget left state behind")
	}
}

func TestBanListBasics(t *testing.T) {
	clock := newMockClock()
	b := NewBanList(clock.Now)
	id := PeerIDFromAddr("10.0.0.2:50001")
	b.Ban(id, time.Hour)
	if !b.IsBanned(id) || b.Count() != 1 {
		t.Error("ban not recorded")
	}
	b.Unban(id)
	if b.IsBanned(id) || b.Count() != 0 {
		t.Error("unban failed")
	}
}

func TestBanListExpiryPruning(t *testing.T) {
	clock := newMockClock()
	b := NewBanList(clock.Now)
	b.Ban(PeerIDFromAddr("10.0.0.2:1"), time.Minute)
	b.Ban(PeerIDFromAddr("10.0.0.2:2"), time.Hour)
	clock.Advance(2 * time.Minute)
	if b.Count() != 1 {
		t.Errorf("Count after partial expiry = %d, want 1", b.Count())
	}
}

func TestBannedPortCountForIP(t *testing.T) {
	clock := newMockClock()
	b := NewBanList(clock.Now)
	target := net.ParseIP("10.0.0.9")
	for port := 49152; port < 49252; port++ {
		b.Ban(PeerIDFromAddr(net.JoinHostPort(target.String(), strconv.Itoa(port))), time.Hour)
	}
	b.Ban(PeerIDFromAddr("10.0.0.8:49152"), time.Hour)
	if got := b.BannedPortCountForIP(target); got != 100 {
		t.Errorf("BannedPortCountForIP = %d, want 100", got)
	}
}

func TestPeerIDIP(t *testing.T) {
	id := PeerIDFromAddr("10.0.0.2:50001")
	if ip := id.IP(); ip == nil || !ip.Equal(net.ParseIP("10.0.0.2")) {
		t.Errorf("IP() = %v", id.IP())
	}
	if PeerIDFromAddr("garbage").IP() != nil {
		t.Error("garbage identifier parsed")
	}
}

func TestScoreMonotoneProperty(t *testing.T) {
	// Property: under threshold-infinity mode, score is the sum of the
	// applied rule scores, in any order.
	f := func(ruleIdx []uint8) bool {
		tr := NewTracker(Config{Mode: ModeThresholdInfinity, Clock: newMockClock().Now})
		peer := PeerIDFromAddr("10.0.0.2:50001")
		rules := RuleSet(V0_20_0)
		want := 0
		order := Catalog()
		for _, idx := range ruleIdx {
			r := order[int(idx)%len(order)]
			if r.Object != AnyPeer {
				continue
			}
			res := misbehave(tr, peer, true, r.ID)
			if s, ok := rules[r.ID]; ok {
				want += s
				if !res.Applied {
					return false
				}
			} else if res.Applied {
				return false
			}
		}
		return tr.Score(peer) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEnumStrings(t *testing.T) {
	if V0_20_0.String() != "0.20.0" || CoreVersion(99).String() == "" {
		t.Error("CoreVersion strings")
	}
	if MisbehaviorInvalid.String() != "Invalid" || MisbehaviorType(99).String() == "" {
		t.Error("MisbehaviorType strings")
	}
	if AnyPeer.String() != "Any peer" || InboundPeer.String() != "Inbound peer" ||
		OutboundPeer.String() != "Outbound peer" || BanObject(99).String() == "" {
		t.Error("BanObject strings")
	}
	if ModeStandard.String() != "standard" || Mode(99).String() == "" {
		t.Error("Mode strings")
	}
	if BlockMutated.String() != "BlockMutated" || RuleID(999).String() == "" {
		t.Error("RuleID strings")
	}
}

func TestModeCKBScoresBothDirections(t *testing.T) {
	tr := NewTracker(Config{Mode: ModeCKB, Clock: newMockClock().Now})
	peer := PeerIDFromAddr("10.0.0.2:50001")
	// Bad behavior accumulates without banning...
	for i := 0; i < 3; i++ {
		res := misbehave(tr, peer, true, BlockMutated)
		if !res.Applied || res.Banned {
			t.Fatalf("ckb result = %+v", res)
		}
	}
	if tr.Score(peer) != 300 || tr.IsBanned(peer) {
		t.Errorf("score = %d banned = %v", tr.Score(peer), tr.IsBanned(peer))
	}
	// ...and good behavior counts against it.
	for i := 0; i < 5; i++ {
		tr.AddGood(peer)
	}
	if got := tr.Reputation(peer); got != 5-300 {
		t.Errorf("reputation = %d, want %d", got, 5-300)
	}
	if ModeCKB.String() != "ckb-scoring" {
		t.Errorf("ModeCKB string = %q", ModeCKB)
	}
}
