package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestReputationComparisonShapes is the tentpole's acceptance gate: under
// the stock ban score every framed innocent is banned and the Sybil swarm
// never runs out of identities; under the reputation engine no innocent is
// ever banned while a ≥50-identity swarm from one /16 exhausts its netgroup
// budget and is collectively banned — fresh identities from the prefix
// refused at accept.
func TestReputationComparisonShapes(t *testing.T) {
	scale := QuickScale()
	res, err := ReputationComparison(scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.SwarmNetgroup != "ip4:10.77/16" {
		t.Fatalf("swarm netgroup = %q, want ip4:10.77/16", res.SwarmNetgroup)
	}

	ban, ok := res.Row("ban-score")
	if !ok {
		t.Fatal("no ban-score row")
	}
	// The paper's vulnerability, reconfirmed: framing bans every innocent…
	if ban.InnocentsBanned != ban.InnocentsFramed || ban.InnocentBanRate != 1 {
		t.Errorf("ban-score innocents banned %d/%d (rate %v), want all",
			ban.InnocentsBanned, ban.InnocentsFramed, ban.InnocentBanRate)
	}
	if ban.MeanTimeToBan <= 0 {
		t.Error("ban-score mode measured no time-to-ban")
	}
	// …and per-identifier bans never exhaust the swarm: every identity is
	// banned individually, yet a fresh one from the same /16 walks in.
	if ban.IndividualBans != ban.SwarmIdentities {
		t.Errorf("ban-score individual bans = %d, want %d (one per identity)",
			ban.IndividualBans, ban.SwarmIdentities)
	}
	if ban.NetgroupBanned || ban.IdentitiesToExhaust != 0 {
		t.Error("ban-score mode has no netgroup ban, but one was recorded")
	}
	if !ban.FreshIdentityAdmitted {
		t.Error("ban-score mode refused a fresh identity — the Sybil hole should admit it")
	}

	rep, ok := res.Row("reputation")
	if !ok {
		t.Fatal("no reputation row")
	}
	// The Defamation victim's innocent identifier is NEVER banned.
	if rep.InnocentsBanned != 0 || rep.InnocentBanRate != 0 {
		t.Errorf("reputation mode banned %d innocents (rate %v), want 0",
			rep.InnocentsBanned, rep.InnocentBanRate)
	}
	if rep.IndividualBans != 0 {
		t.Errorf("reputation mode applied %d per-identifier bans, want 0", rep.IndividualBans)
	}
	// A parallel swarm of ≥50 identities from one /16 exhausts the group
	// budget at exactly the engine's analytic identity bound.
	if rep.SwarmIdentities < 50 {
		t.Fatalf("swarm of %d identities, want ≥50", rep.SwarmIdentities)
	}
	if !rep.NetgroupBanned {
		t.Fatal("reputation mode never banned the swarm's netgroup")
	}
	if rep.IdentitiesToExhaust != res.EngineBudgetIdentities {
		t.Errorf("identities to exhaust = %d, want the analytic bound %d",
			rep.IdentitiesToExhaust, res.EngineBudgetIdentities)
	}
	if rep.TimeToGroupBan <= 0 {
		t.Error("no time-to-group-ban measured")
	}
	// Collective refusal: the never-seen swarm identity is turned away at
	// accept, before any handshake.
	if rep.FreshIdentityAdmitted {
		t.Error("reputation mode admitted a fresh identity from the banned /16")
	}
	if rep.RefusedAtAccept == 0 {
		t.Error("no accept-time refusals counted")
	}

	out := res.Render()
	for _, want := range []string{"ban-score", "reputation", "ip4:10.77/16", "refused", "admitted"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}

	// The -json artifact shape: rows round-trip through JSON.
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back ReputationComparisonResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Rows) != 2 || back.SwarmNetgroup != res.SwarmNetgroup {
		t.Errorf("artifact round-trip lost rows: %+v", back)
	}
}
