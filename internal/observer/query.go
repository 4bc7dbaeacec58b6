package observer

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Fleet-wide query views. Everything here is read-only aggregation over the
// store tables, answering the questions the paper's cross-node experiments
// pose: which peers are banned where, on what evidence, and how long
// between the first and last node banning them.

// BanSighting is one node banning one peer.
type BanSighting struct {
	Node     string    `json:"node"`
	Peer     string    `json:"peer"`
	At       time.Time `json:"at"`
	Score    float64   `json:"score"`
	Seq      uint64    `json:"seq"`
	Evidence string    `json:"evidence,omitempty"`
}

// PeerBans aggregates every sighting of one peer being banned across the
// fleet.
type PeerBans struct {
	Peer      string        `json:"peer"`
	Sightings []BanSighting `json:"sightings"`
}

// Propagation is the cross-node spread of one peer's ban: how many nodes
// banned it, when the first and last did, and the latency between them —
// the fleet-level visibility of a Table I verdict.
type Propagation struct {
	Peer        string    `json:"peer"`
	NodesBanned int       `json:"nodes_banned"`
	FirstAt     time.Time `json:"first_at"`
	FirstNode   string    `json:"first_node"`
	LastAt      time.Time `json:"last_at"`
	LastNode    string    `json:"last_node"`
	Spread      float64   `json:"spread_seconds"`
}

// NodeSummary is one node's footprint in the store.
type NodeSummary struct {
	Node    string `json:"node"`
	Events  int    `json:"events"`
	Bans    int    `json:"bans"`
	Cursor  Cursor `json:"cursor"`
	Info    string `json:"info,omitempty"`
	Healthy *bool  `json:"healthy,omitempty"`
}

// isBan reports whether ev is a journal ban verdict.
func isBan(ev *Event) bool {
	return ev.Stream == StreamJournal && ev.Kind == "ban"
}

// Bans returns every peer banned anywhere in the fleet, each with its
// per-node sightings in ban-time order, sorted by peer for stable output.
func (s *Store) Bans() []PeerBans {
	s.mu.Lock()
	defer s.mu.Unlock()
	byPeer := make(map[string][]BanSighting)
	for i := range s.events {
		ev := &s.events[i]
		if !isBan(ev) {
			continue
		}
		byPeer[ev.Peer] = append(byPeer[ev.Peer], s.sightingLocked(ev))
	}
	out := make([]PeerBans, 0, len(byPeer))
	for peer, sightings := range byPeer {
		sort.Slice(sightings, func(i, j int) bool { return sightings[i].At.Before(sightings[j].At) })
		out = append(out, PeerBans{Peer: peer, Sightings: sightings})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// sightingLocked renders one ban event, joining any StreamEvidence row the
// poller attached under the same (node, seq).
func (s *Store) sightingLocked(ev *Event) BanSighting {
	sight := BanSighting{Node: ev.Node, Peer: ev.Peer, At: ev.At, Score: ev.Value, Seq: ev.Seq}
	if _, ok := s.byKey[Key{Node: ev.Node, Stream: StreamEvidence, Seq: ev.Seq}]; ok {
		for _, idx := range s.byPeer[ev.Peer] {
			e := &s.events[idx]
			if e.Node == ev.Node && e.Stream == StreamEvidence && e.Seq == ev.Seq {
				sight.Evidence = e.Detail
				break
			}
		}
	}
	return sight
}

// PeerEvents returns every stored event involving peer, in ingest order.
func (s *Store) PeerEvents(peer string) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	idxs := s.byPeer[peer]
	out := make([]Event, 0, len(idxs))
	for _, idx := range idxs {
		out = append(out, s.events[idx])
	}
	return out
}

// Propagation computes each banned peer's cross-node spread. Only a peer's
// first ban per node counts — rebans after expiry measure policy, not
// propagation.
func (s *Store) Propagation() []Propagation {
	s.mu.Lock()
	defer s.mu.Unlock()
	type firstBan struct {
		at   time.Time
		node string
	}
	perPeer := make(map[string]map[string]firstBan) // peer -> node -> first ban
	for i := range s.events {
		ev := &s.events[i]
		if !isBan(ev) {
			continue
		}
		nodes := perPeer[ev.Peer]
		if nodes == nil {
			nodes = make(map[string]firstBan)
			perPeer[ev.Peer] = nodes
		}
		if prev, ok := nodes[ev.Node]; !ok || ev.At.Before(prev.at) {
			nodes[ev.Node] = firstBan{at: ev.At, node: ev.Node}
		}
	}
	out := make([]Propagation, 0, len(perPeer))
	for peer, nodes := range perPeer {
		p := Propagation{Peer: peer, NodesBanned: len(nodes)}
		for _, fb := range nodes {
			if p.FirstAt.IsZero() || fb.at.Before(p.FirstAt) {
				p.FirstAt, p.FirstNode = fb.at, fb.node
			}
			if fb.at.After(p.LastAt) {
				p.LastAt, p.LastNode = fb.at, fb.node
			}
		}
		p.Spread = p.LastAt.Sub(p.FirstAt).Seconds()
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// Nodes summarizes each node the observer has heard from.
func (s *Store) Nodes() []NodeSummary {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.byNode))
	for node := range s.byNode {
		names = append(names, node)
	}
	for node := range s.cursors {
		if _, ok := s.byNode[node]; !ok {
			names = append(names, node)
		}
	}
	sort.Strings(names)
	out := make([]NodeSummary, 0, len(names))
	for _, node := range names {
		sum := NodeSummary{Node: node, Events: len(s.byNode[node]), Cursor: s.cursors[node]}
		for _, idx := range s.byNode[node] {
			ev := &s.events[idx]
			switch {
			case isBan(ev):
				sum.Bans++
			case ev.Stream == StreamNode && ev.Kind == KindNodeInfo:
				sum.Info = ev.Detail
			case ev.Stream == StreamHealth && ev.Kind == KindHealth:
				healthy := ev.Detail == "ok"
				sum.Healthy = &healthy
			}
		}
		out = append(out, sum)
	}
	return out
}

// QueryHandler serves the fleet query API:
//
//	GET /fleet/bans         — every banned peer with per-node sightings
//	GET /fleet/peers/<id>   — full event history for one peer (404 unknown)
//	GET /fleet/propagation  — per-ban first-seen→last-seen spread
//	GET /fleet/nodes        — per-node summaries with cursors
//	GET /fleet/status       — store shape (LSN, counts, truncations)
//
// All responses are JSON with Content-Type set; unknown peers are 404, not
// 200-with-empty.
func (s *Store) QueryHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet/bans", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Bans())
	})
	mux.HandleFunc("/fleet/propagation", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Propagation())
	})
	mux.HandleFunc("/fleet/nodes", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Nodes())
	})
	mux.HandleFunc("/fleet/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Status())
	})
	mux.HandleFunc("/fleet/peers/", func(w http.ResponseWriter, r *http.Request) {
		peer := strings.TrimPrefix(r.URL.Path, "/fleet/peers/") // decoded once, by net/http
		if peer == "" {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad peer identifier"})
			return
		}
		events := s.PeerEvents(peer)
		if len(events) == 0 {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown peer", "peer": peer})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"peer": peer, "events": events})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
