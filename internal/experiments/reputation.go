package experiments

import (
	"fmt"
	"strings"
	"time"

	"banscore/internal/attack"
	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/reputation"
)

// ReputationRow records how one countermeasure configuration fares against
// the paper's two identifier-layer attacks: Defamation (framing innocent
// identifiers) and the Sybil swarm (many identifiers from one network
// prefix misbehaving in first person).
type ReputationRow struct {
	// Mode names the configuration: "ban-score" is the stock tracker
	// (ModeStandard, per-[IP:Port] bans); "reputation" pairs
	// ModeThresholdInfinity with the netgroup reputation engine.
	Mode string `json:"mode"`

	// Defamation phase: innocents framed via the duplicate-VERSION
	// primitive, how many ended up banned, and the mean time from first
	// attack message to the ban (zero when no innocent was ever banned).
	InnocentsFramed int     `json:"innocents_framed"`
	InnocentsBanned int     `json:"innocents_banned"`
	InnocentBanRate float64 `json:"innocent_ban_rate"`
	MeanTimeToBan   float64 `json:"mean_time_to_ban_s"`

	// Sybil phase: distinct identifiers from one /16 misbehaving until
	// saturation. IndividualBans counts per-identifier tracker bans (the
	// stock defense); IdentitiesToExhaust is how many identities it took
	// before the whole netgroup was collectively banned (zero = never);
	// TimeToGroupBan measures swarm start to group ban.
	SwarmIdentities     int     `json:"swarm_identities"`
	IndividualBans      int     `json:"individual_bans"`
	IdentitiesToExhaust int     `json:"identities_to_exhaust_netgroup"`
	NetgroupBanned      bool    `json:"netgroup_banned"`
	TimeToGroupBan      float64 `json:"time_to_group_ban_s"`

	// FreshIdentityAdmitted reports whether a never-seen identifier from
	// the swarm's /16 could still connect after the swarm ran — true is
	// the Sybil hole (per-identifier bans never run out of identities),
	// false is the engine's collective refusal. RefusedAtAccept counts
	// connections the victim closed at accept time on netgroup standing.
	FreshIdentityAdmitted bool   `json:"fresh_identity_admitted"`
	RefusedAtAccept       uint64 `json:"refused_at_accept"`
}

// ReputationComparisonResult holds the ban-score vs reputation-engine
// comparison the tentpole closes on: the stock tracker bans every framed
// innocent and never runs the swarm out of identities, while the engine
// never bans an innocent and collectively bans the swarm's prefix after a
// bounded number of identities.
type ReputationComparisonResult struct {
	SwarmNetgroup string `json:"swarm_netgroup"`

	// EngineBudgetIdentities is the engine's analytic bound
	// ceil(GroupBudget / PeerContributionCap): the minimum number of
	// distinct identities one netgroup must burn to exhaust its budget.
	EngineBudgetIdentities int `json:"engine_budget_identities"`

	Rows []ReputationRow `json:"rows"`
}

// swarmPrefix is the Sybil swarm's IPv4 /16; innocents are framed from a
// different prefix so the two phases cannot contaminate each other.
const (
	swarmPrefix    = "10.77"
	innocentPrefix = "10.1"
)

// reputationEngineConfig builds the engine under test. The half-life is
// stretched far past the run's duration so the budget arithmetic below is
// exact — decay is a long-timescale property, separately proven by the
// engine's determinism tests, and letting seconds of wall clock shave
// fractions off charges would only blur the identity counting this
// experiment is after.
func reputationEngineConfig() reputation.Config {
	return reputation.Config{
		HalfLife: 1000 * time.Hour,
		// One point under the default: continuous decay keeps pressure at
		// budget−ε after exactly budget/cap saturated identities, which
		// would overreport the analytic identity bound by one.
		GroupBudget: reputation.DefaultGroupBudget - 1,
	}
}

// ReputationComparison re-runs the Defamation and Sybil-swarm suites under
// the stock ban-score tracker and under the netgroup reputation engine,
// producing the paper-style comparison table (time-to-ban, innocent-ban
// rate, identities needed to exhaust a netgroup).
func ReputationComparison(scale Scale) (ReputationComparisonResult, error) {
	swarm := scale.SwarmIdentities
	if swarm <= 0 {
		swarm = QuickScale().SwarmIdentities
	}
	innocents := scale.SerialIdentifiers
	if innocents <= 0 {
		innocents = 1
	}

	res := ReputationComparisonResult{
		SwarmNetgroup:          reputation.NetgroupKey(core.PeerIDFromAddr(swarmAddr(0))),
		EngineBudgetIdentities: reputation.New(reputationEngineConfig()).IdentitiesToExhaust(),
	}

	for _, mode := range []string{"ban-score", "reputation"} {
		var engine *reputation.Engine
		trackerMode := core.ModeStandard
		if mode == "reputation" {
			engine = reputation.New(reputationEngineConfig())
			trackerMode = core.ModeThresholdInfinity
		}
		tb, err := scale.testbed(node.Config{
			TrackerConfig: core.Config{Mode: trackerMode},
			MaxInbound:    swarm + 8,
			Reputation:    engine,
		})
		if err != nil {
			return res, err
		}
		row, err := runReputationRow(tb, engine, mode, innocents, swarm)
		tb.Close()
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func swarmAddr(i int) string {
	return fmt.Sprintf("%s.%d.%d:%d", swarmPrefix, 1+i/200, 1+i%200, 49152+i%16384)
}

func innocentAddr(i int) string {
	return fmt.Sprintf("%s.0.%d:50001", innocentPrefix, 10+i)
}

// runReputationRow drives both attack phases against one victim.
func runReputationRow(tb *Testbed, engine *reputation.Engine, mode string, innocents, swarm int) (ReputationRow, error) {
	row := ReputationRow{Mode: mode, InnocentsFramed: innocents, SwarmIdentities: swarm}
	tracker := tb.Victim.Tracker()

	// Phase 1 — Defamation: frame each innocent identifier with duplicate
	// VERSION messages (+1 apiece), half again past the stock threshold.
	const framingMessages = core.DefaultBanThreshold + core.DefaultBanThreshold/2
	var banSeconds float64
	for i := 0; i < innocents; i++ {
		addr := innocentAddr(i)
		id := core.PeerIDFromAddr(addr)
		s, err := tb.NewAttackSession(addr)
		if err != nil {
			return row, fmt.Errorf("defame %s: %w", addr, err)
		}
		factory := versionFactory()
		start := clk.Now()
		sent := 0
		for sent < framingMessages {
			if err := s.Send(factory()); err != nil {
				break // victim disconnected the framed identifier
			}
			sent++
		}
		// Wait until the victim has scored everything sent (or banned).
		deadline := clk.Now().Add(5 * time.Second)
		for clk.Now().Before(deadline) {
			if tracker.IsBanned(id) || tracker.Score(id) >= sent {
				break
			}
			clk.Sleep(time.Millisecond)
		}
		if tracker.IsBanned(id) {
			row.InnocentsBanned++
			banSeconds += clk.Since(start).Seconds()
		}
		s.Close()
	}
	row.InnocentBanRate = float64(row.InnocentsBanned) / float64(innocents)
	if row.InnocentsBanned > 0 {
		row.MeanTimeToBan = banSeconds / float64(row.InnocentsBanned)
	}

	// Phase 2 — Sybil swarm: distinct identities from one /16, each
	// misbehaving in first person (oversize ADDR, +20) past the
	// per-identifier threshold and the engine's per-identity contribution
	// cap. Sessions stay open (the parallel swarm) so a collective ban
	// must tear down live members, and earlier closes (when the victim
	// bans or the group falls) double as serial churn — the engine's group
	// charge must survive them.
	group := reputation.NetgroupKey(core.PeerIDFromAddr(swarmAddr(0)))
	forge := attack.NewForge(blockchain.SimNetParams())
	const hitsPerIdentity = 6 // 6×20 = 120 > threshold 100 and > contribution cap
	sessions := make([]*attack.Session, 0, swarm)
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()
	swarmStart := clk.Now()
	for i := 0; i < swarm; i++ {
		if engine != nil {
			if _, status := engine.GroupPressure(group); status == reputation.GroupBanned {
				break // collective ban: remaining identities never join
			}
		}
		addr := swarmAddr(i)
		id := core.PeerIDFromAddr(addr)
		s, err := tb.NewAttackSession(addr)
		if err != nil {
			// Refused at accept — the engine's collective defense. The
			// stock tracker never refuses a fresh identifier, so any
			// handshake failure there is a real error.
			if engine != nil {
				break
			}
			return row, fmt.Errorf("swarm %s: %w", addr, err)
		}
		sessions = append(sessions, s)
		for h := 0; h < hitsPerIdentity; h++ {
			if err := s.Send(forge.OversizeAddr()); err != nil {
				break // banned mid-burst (stock mode) or group fell
			}
		}
		// Wait for the victim to finish scoring this identity: the stock
		// tracker bans it at 100; the engine saturates its contribution.
		deadline := clk.Now().Add(5 * time.Second)
		for clk.Now().Before(deadline) {
			if tracker.IsBanned(id) {
				break
			}
			if engine != nil && engine.Score(id).Misbehavior >= reputation.DefaultPeerContributionCap {
				break
			}
			clk.Sleep(time.Millisecond)
		}
		if tracker.IsBanned(id) {
			row.IndividualBans++
		}
		if engine != nil {
			if _, status := engine.GroupPressure(group); status == reputation.GroupBanned {
				row.NetgroupBanned = true
				row.IdentitiesToExhaust = i + 1
				row.TimeToGroupBan = clk.Since(swarmStart).Seconds()
			}
		}
	}

	// Epilogue: can a never-seen identifier from the swarm's /16 still get
	// in? Under per-[IP:Port] bans it always can — the Sybil hole. Under a
	// banned netgroup the accept gate refuses it before the handshake.
	fresh, err := tb.NewAttackSession(swarmPrefix + ".250.250:65000")
	if err == nil {
		row.FreshIdentityAdmitted = true
		fresh.Close()
	}
	row.RefusedAtAccept = tb.Victim.Stats().NetgroupConnsRefused
	return row, nil
}

// Row returns the record for the named mode.
func (r ReputationComparisonResult) Row(mode string) (ReputationRow, bool) {
	for _, row := range r.Rows {
		if row.Mode == mode {
			return row, true
		}
	}
	return ReputationRow{}, false
}

// Render prints the ban-score vs reputation comparison table.
func (r ReputationComparisonResult) Render() string {
	var sb strings.Builder
	sb.WriteString("REPUTATION ENGINE vs BAN SCORE — DEFAMATION + SYBIL SWARM\n")
	fmt.Fprintf(&sb, "%-12s | %10s | %12s | %8s | %12s | %10s | %9s | %s\n",
		"Mode", "Innoc.ban", "Time-to-ban", "Swarm", "Per-ID bans", "IDs/group", "Grp ban", "Fresh ID")
	sb.WriteString(strings.Repeat("-", 104) + "\n")
	for _, row := range r.Rows {
		ttb := "never"
		if row.InnocentsBanned > 0 {
			ttb = fmt.Sprintf("%.3fs", row.MeanTimeToBan)
		}
		exhaust := "never"
		if row.NetgroupBanned {
			exhaust = fmt.Sprintf("%d", row.IdentitiesToExhaust)
		}
		admitted := "refused"
		if row.FreshIdentityAdmitted {
			admitted = "admitted"
		}
		fmt.Fprintf(&sb, "%-12s | %6d/%-3d | %12s | %8d | %12d | %10s | %9v | %s\n",
			row.Mode, row.InnocentsBanned, row.InnocentsFramed, ttb,
			row.SwarmIdentities, row.IndividualBans, exhaust, row.NetgroupBanned, admitted)
	}
	fmt.Fprintf(&sb, "\nSwarm netgroup %s; engine budget requires ≥%d distinct identities (ceil(budget/cap))\n",
		r.SwarmNetgroup, r.EngineBudgetIdentities)
	sb.WriteString("ban-score: every framed innocent banned, swarm never exhausted — the paper's vulnerability.\n")
	sb.WriteString("reputation: no innocent banned; the swarm's whole /16 is collectively banned and refused.\n")
	return sb.String()
}
