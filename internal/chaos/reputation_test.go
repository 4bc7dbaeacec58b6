package chaos

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"banscore/internal/attack"
	"banscore/internal/banstore"
	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/reputation"
	"banscore/internal/simnet"
)

// TestNetgroupBanSurvivesFaultStorm drives a Sybil swarm from one /16
// through a degraded fabric — payload loss, latency, jitter — and requires
// the reputation engine's collective defense to hold anyway: the group
// charge accumulates across lossy, churning connections until the whole
// prefix is banned, fresh identities from it are refused at accept, and the
// honest peers (a different /16) ride out the storm untouched.
func TestNetgroupBanSurvivesFaultStorm(t *testing.T) {
	engine := reputation.New(reputation.Config{
		// Tight budget for test scale: each identity contributes at most
		// 40 (two oversize ADDRs), so the /16 falls after 4 identities —
		// 4×40 clears 150 even after decay shaves fractions.
		PeerContributionCap: 40,
		GroupBudget:         150,
	})
	cl, err := NewCluster(Config{HonestPeers: 2, Options: node.Options{Config: node.Config{Reputation: engine}}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.ConnectAll(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "outbound slots filled", func() bool {
		_, out := cl.Victim.PeerCount()
		return out == 2
	})

	// Storm: every link dialed from here on drops 5% of payloads and adds
	// latency/jitter. Honest connections predate the plan (fault plans
	// bind at dial time) — the swarm's connections all ride through it.
	cl.Fabric.SetDefaultFaults(&simnet.FaultPlan{
		DropRate: 0.05, Latency: time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 0xbead,
	})

	const swarmGroup = "ip4:10.9/16"
	forge := attack.NewForge(blockchain.SimNetParams())
	groupBanned := func() bool {
		_, status := engine.GroupPressure(swarmGroup)
		return status == reputation.GroupBanned
	}

	// Serial swarm through the weather: each identity redials until its
	// contribution saturates — dropped payloads desynchronize framing and
	// kill connections, so charges must survive arbitrary churn.
	identities := 0
	for i := 0; !groupBanned(); i++ {
		if i >= 32 {
			t.Fatal("netgroup never banned through the storm")
		}
		addr := fmt.Sprintf("10.9.1.%d:4001", 10+i)
		id := core.PeerIDFromAddr(addr)
		identities++
		deadline := time.Now().Add(15 * time.Second)
		for engine.Score(id).Misbehavior < 39 && !groupBanned() {
			if time.Now().After(deadline) {
				t.Fatalf("identity %s never saturated its contribution", addr)
			}
			conn, err := cl.Fabric.Dial(addr, VictimAddr)
			if err != nil {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			attackOnce(conn, forge)
		}
	}
	if want := engine.IdentitiesToExhaust(); identities < want {
		t.Errorf("group fell after %d identities, want ≥ %d (ceil(budget/cap))", identities, want)
	}
	if fs := cl.Fabric.FaultStats(); fs.PayloadsDelayed == 0 {
		t.Error("storm never bit: no payloads delayed")
	}

	// A never-seen identity from the banned /16 is refused at accept,
	// even over the faulted fabric.
	if conn, err := cl.Fabric.Dial("10.9.250.250:6000", VictimAddr); err == nil {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Error("banned-prefix identity was not refused")
		}
		conn.Close()
	}
	waitFor(t, 5*time.Second, "netgroup refusal counted", func() bool {
		return cl.Victim.Stats().NetgroupConnsRefused >= 1
	})

	// Heal and require the honest side intact: different /16, no bans, no
	// lost slots, health green.
	cl.Fabric.SetDefaultFaults(nil)
	for _, addr := range cl.HonestAddrs {
		if cl.Victim.Tracker().IsBanned(core.PeerIDFromAddr(addr)) {
			t.Errorf("honest peer %s banned", addr)
		}
	}
	waitFor(t, 30*time.Second, "honest slots intact after heal", func() bool {
		_, out := cl.Victim.PeerCount()
		return out == 2 && cl.Victim.Stats().PendingOutbound == 0
	})
	waitFor(t, 10*time.Second, "healthz healthy after heal", func() bool {
		code, _, _ := cl.Healthz()
		return code == http.StatusOK
	})
	if _, status := engine.GroupPressure(swarmGroup); status != reputation.GroupBanned {
		t.Error("netgroup ban did not survive the heal")
	}
}

// TestClusterServesEveryComponent pins what the one victim assembly buys
// the chaos harness: a cluster given a reputation engine and a ban store
// serves both components' /debug views and exports their series, like
// cmd/btcnode does, rather than running them dark.
func TestClusterServesEveryComponent(t *testing.T) {
	cl, err := NewCluster(Config{HonestPeers: 1, Options: node.Options{
		Store:  &banstore.Options{Dir: t.TempDir()},
		Engine: &reputation.Config{},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		cl.Server.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code, rec.Body.String()
	}
	for _, path := range []string{"/debug/reputation", "/debug/banstore"} {
		if code, body := get(path); code != http.StatusOK {
			t.Errorf("GET %s = %d: %s", path, code, body)
		}
	}
	_, metrics := get("/metrics")
	for _, series := range []string{"reputation_peers", "banstore_wal_appends_total"} {
		if !strings.Contains(metrics, "\n"+series) {
			t.Errorf("/metrics carries no %s series", series)
		}
	}
}
