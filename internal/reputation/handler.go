package reputation

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"banscore/internal/core"
	"banscore/internal/telemetry"
)

// PeerSnapshot is one identity's reputation state as served by
// /debug/reputation.
type PeerSnapshot struct {
	Peer        core.PeerID `json:"peer"`
	Group       string      `json:"group"`
	Trust       float64     `json:"trust"`
	Misbehavior float64     `json:"misbehavior"`
	Reputation  float64     `json:"reputation"`
	Penalties   uint64      `json:"penalties"`
	Credits     uint64      `json:"credits"`
}

// GroupSnapshot is one netgroup's state as served by /debug/reputation.
type GroupSnapshot struct {
	Group       string    `json:"group"`
	Pressure    float64   `json:"pressure"`
	Budget      float64   `json:"budget"`
	Status      string    `json:"status"`
	Identities  int       `json:"identities"`
	Bans        uint64    `json:"bans"`
	BannedUntil time.Time `json:"banned_until,omitempty"`
}

// Snapshot is the full /debug/reputation document.
type Snapshot struct {
	Peers     []PeerSnapshot  `json:"peers"`
	Groups    []GroupSnapshot `json:"groups"`
	Penalties uint64          `json:"penalties_total"`
	Credits   uint64          `json:"credits_total"`
	GroupBans uint64          `json:"group_bans_total"`
	Rejected  uint64          `json:"admissions_rejected_total"`
}

// Snapshot captures every identity and netgroup at the current clock
// reading, decayed and sorted (peers by ascending reputation — eviction
// order — and groups by descending pressure). Diagnostic path: it allocates
// freely and takes each shard lock in turn.
func (e *Engine) Snapshot() Snapshot {
	now := e.cfg.Clock.Now()
	snap := Snapshot{
		Peers:  make([]PeerSnapshot, 0, 16),
		Groups: make([]GroupSnapshot, 0, 8),
	}
	for i := range e.peers {
		s := &e.peers[i]
		s.mu.RLock()
		for id, p := range s.m {
			mis := e.decay(p.mis, p.last, now)
			snap.Peers = append(snap.Peers, PeerSnapshot{
				Peer:        id,
				Group:       p.group.key,
				Trust:       p.trust,
				Misbehavior: mis,
				Reputation:  p.trust - mis,
				Penalties:   p.penalties,
				Credits:     p.credits,
			})
		}
		s.mu.RUnlock()
	}
	for i := range e.groups {
		s := &e.groups[i]
		s.mu.Lock()
		for _, g := range s.m {
			g.mu.Lock()
			g.pressure = e.decay(g.pressure, g.last, now)
			g.last = now
			gs := GroupSnapshot{
				Group:      g.key,
				Pressure:   g.pressure,
				Budget:     e.cfg.GroupBudget,
				Status:     e.groupStatusLocked(g, now).String(),
				Identities: g.identities,
				Bans:       g.bans,
			}
			if now.Before(g.bannedUntil) {
				gs.BannedUntil = g.bannedUntil
			}
			g.mu.Unlock()
			snap.Groups = append(snap.Groups, gs)
		}
		s.mu.Unlock()
	}
	sort.Slice(snap.Peers, func(i, j int) bool {
		if snap.Peers[i].Reputation != snap.Peers[j].Reputation {
			return snap.Peers[i].Reputation < snap.Peers[j].Reputation
		}
		return snap.Peers[i].Peer < snap.Peers[j].Peer
	})
	sort.Slice(snap.Groups, func(i, j int) bool {
		if snap.Groups[i].Pressure != snap.Groups[j].Pressure {
			return snap.Groups[i].Pressure > snap.Groups[j].Pressure
		}
		return snap.Groups[i].Group < snap.Groups[j].Group
	})
	snap.Penalties, snap.Credits, snap.GroupBans, snap.Rejected = e.Totals()
	return snap
}

// peerDoc is the /debug/reputation/<peer> document.
type peerDoc struct {
	PeerSnapshot
	GroupPressure float64 `json:"group_pressure"`
	GroupStatus   string  `json:"group_status"`
}

// Handler serves the engine over HTTP. Mounted at /debug/reputation:
//
//	/debug/reputation          — full snapshot: peers (eviction order),
//	                             netgroups (pressure order), totals
//	/debug/reputation/<peer>   — one identity plus its netgroup standing
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		id := core.PathPeer(r, "/debug/reputation")
		if id == "" {
			_ = json.NewEncoder(w).Encode(e.Snapshot())
			return
		}
		s := e.peerShard(id)
		s.mu.RLock()
		p := s.m[id]
		s.mu.RUnlock()
		if p == nil {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "no reputation state for peer " + string(id)})
			return
		}
		now := e.cfg.Clock.Now()
		s.mu.RLock()
		mis := e.decay(p.mis, p.last, now)
		doc := peerDoc{PeerSnapshot: PeerSnapshot{
			Peer:        id,
			Group:       p.group.key,
			Trust:       p.trust,
			Misbehavior: mis,
			Reputation:  p.trust - mis,
			Penalties:   p.penalties,
			Credits:     p.credits,
		}}
		s.mu.RUnlock()
		pressure, status := e.GroupPressure(doc.Group)
		doc.GroupPressure = pressure
		doc.GroupStatus = status.String()
		_ = json.NewEncoder(w).Encode(doc)
	})
}

// Instrument registers the engine's metrics on reg. Gauges are pull-style:
// they walk the shards at scrape time, so a scrape observes decayed values
// at its own instant.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	reg.Describe("reputation_peers", "Identities currently holding reputation state.")
	reg.Describe("reputation_netgroups", "Netgroups currently holding reputation state, by status.")
	reg.Describe("reputation_penalties_total", "Misbehavior penalties charged through the reputation engine.")
	reg.Describe("reputation_credits_total", "Useful-work trust credits granted.")
	reg.Describe("reputation_group_bans_total", "Collective netgroup bans issued.")
	reg.Describe("reputation_admissions_rejected_total", "Inbound admissions rejected because the netgroup is banned.")

	reg.GaugeFunc("reputation_peers", func() float64 { return float64(e.TrackedPeers()) })
	reg.GaugeFunc("reputation_netgroups", func() float64 {
		total, _, _ := e.TrackedGroups()
		return float64(total)
	}, telemetry.L("status", "total"))
	reg.GaugeFunc("reputation_netgroups", func() float64 {
		_, probation, _ := e.TrackedGroups()
		return float64(probation)
	}, telemetry.L("status", "probation"))
	reg.GaugeFunc("reputation_netgroups", func() float64 {
		_, _, banned := e.TrackedGroups()
		return float64(banned)
	}, telemetry.L("status", "banned"))
	reg.CounterFunc("reputation_penalties_total", func() float64 {
		p, _, _, _ := e.Totals()
		return float64(p)
	})
	reg.CounterFunc("reputation_credits_total", func() float64 {
		_, c, _, _ := e.Totals()
		return float64(c)
	})
	reg.CounterFunc("reputation_group_bans_total", func() float64 {
		_, _, b, _ := e.Totals()
		return float64(b)
	})
	reg.CounterFunc("reputation_admissions_rejected_total", func() float64 {
		_, _, _, r := e.Totals()
		return float64(r)
	})
}
