package core

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"banscore/internal/lockrank"
	"banscore/internal/ring"
)

// BanRecord is one immutable forensics entry: a single Misbehaving call that
// scored. The chain of records for a peer is the complete causal answer to
// "why is this peer banned" — rule by rule, delta by delta, with the wire
// command that triggered each hit and the lifecycle trace (if the message
// was sampled) it belongs to.
type BanRecord struct {
	// Seq is the 1-based per-peer sequence number.
	Seq uint64 `json:"seq"`

	// At is the tracker clock's time of the call.
	At time.Time `json:"at"`

	Peer PeerID `json:"peer"`

	// RuleID / Rule identify the Table I rule that fired.
	RuleID RuleID `json:"rule_id"`
	Rule   string `json:"rule"`

	// Delta is the score this call added; Score is the peer's resulting
	// total.
	Delta int `json:"delta"`
	Score int `json:"score"`

	// Banned is true when this call pushed the peer over the threshold.
	Banned bool `json:"banned"`

	// Command is the wire command of the triggering message, when known.
	Command string `json:"command,omitempty"`

	// TraceID links to the message's lifecycle trace (0 when the message
	// was not sampled or tracing was off).
	TraceID uint64 `json:"trace_id,omitempty"`

	// PayloadDigest is the offending payload's wire checksum (first 4
	// bytes of double-SHA256, big-endian) and PayloadLen its size in
	// bytes — the evidence that ties this record to the bytes on the
	// wire. Zero when the hit did not originate from a decoded message.
	PayloadDigest uint32 `json:"payload_digest,omitempty"`
	PayloadLen    int    `json:"payload_len,omitempty"`
}

// Ledger retention bounds. Chains survive disconnects and bans on purpose —
// Tracker.Forget drops live score state, never forensic history.
const (
	// DefaultLedgerPeers caps how many peers the ledger tracks; beyond it
	// the peer with the oldest first record is evicted whole.
	DefaultLedgerPeers = 4096

	// DefaultLedgerPerPeer caps records retained per peer; beyond it the
	// oldest records of that peer are trimmed.
	DefaultLedgerPerPeer = 256
)

// Ledger is the append-only ban forensics store. A nil *Ledger is a valid
// no-op sink, so the tracker records unconditionally. Safe for concurrent
// use.
type Ledger struct {
	mu      lockrank.Mutex[lockrank.Ledger]
	chains  map[PeerID]*chain
	order   ring.Ring[PeerID] // peers by first-record time; the one a Push overwrites is evicted whole
	total   uint64
	trimmed uint64 // records trimmed from overlong chains

	// names interns every rule and command an entry refers to; index is its
	// reverse. Live hits name a fixed set of rule and wire-command constants,
	// and restored names are bounded by the log they were read from, so the
	// table is never pruned.
	names []ledgerName
	index map[ledgerName]uint32

	maxPerPeer int
}

// chain is one peer's retained records and its sequence counter — not the
// ring's Total: restored records carry their stamps, which may skip WAL sheds.
// The peer itself is the chain's key in Ledger.chains, stored once.
type chain struct {
	entries ring.Ring[entry]
	seq     uint64
}

// ledgerName is one name-table row. A rule is interned with its RuleID, a
// command with RuleID zero.
type ledgerName struct {
	id   RuleID
	text string
}

// entry is one retained BanRecord, packed to 64 bytes with no pointers: the
// peer is the chain's, Rule and Command are name-table indices, and At is its
// UnixNano. Every numeric field keeps BanRecord's width, so any record the
// WAL can hold rebuilds exactly. Of At's location only "UTC or not" is kept:
// any other zone rebuilds as Local, the zone a WAL-restored time carries. The
// monotonic clock reading is dropped.
type entry struct {
	seq        uint64
	at         int64
	delta      int
	score      int
	traceID    uint64
	payloadLen int
	rule       uint32 // names index of {RuleID, Rule}
	command    uint32 // names index of {0, Command}
	digest     uint32
	flags      uint8
}

// entry flags.
const (
	entryBanned uint8 = 1 << iota
	entryTimed        // At is not the zero time
	entryUTC          // At's location is UTC
)

// NewLedger builds a ledger; non-positive bounds select the defaults.
func NewLedger(maxPeers, maxPerPeer int) *Ledger {
	if maxPeers <= 0 {
		maxPeers = DefaultLedgerPeers
	}
	if maxPerPeer <= 0 {
		maxPerPeer = DefaultLedgerPerPeer
	}
	return &Ledger{
		chains:     make(map[PeerID]*chain),
		order:      ring.New[PeerID](maxPeers),
		index:      make(map[ledgerName]uint32),
		maxPerPeer: maxPerPeer,
	}
}

// Append records rec, stamping its per-peer sequence number, and returns
// the stamp — the durability layer writes it into the WAL so replay can
// dedupe against a snapshot that already captured the record. No-op on a
// nil ledger (returning 0, the "unstamped" sentinel Restore recognizes).
func (l *Ledger) Append(rec BanRecord) uint64 {
	rec.Seq = 0
	return l.add(&rec)
}

// add is the one body under Append and Restore: a zero rec.Seq is stamped
// with the peer's next number, a non-zero one honored unless already reached.
func (l *Ledger) add(rec *BanRecord) uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.chains[rec.Peer]
	if !ok {
		if oldest, evicted := l.order.Push(rec.Peer); evicted {
			delete(l.chains, oldest)
		}
		c = &chain{entries: ring.New[entry](l.maxPerPeer)}
		l.chains[rec.Peer] = c
	}
	if rec.Seq == 0 {
		rec.Seq = c.seq + 1
	} else if rec.Seq <= c.seq {
		return c.seq
	}
	c.seq = rec.Seq
	if _, trimmed := c.entries.Push(l.pack(rec)); trimmed {
		l.trimmed++
	}
	l.total++
	return c.seq
}

// intern returns the name-table index of {id, text}, adding it if new.
// Called with l.mu held.
func (l *Ledger) intern(id RuleID, text string) uint32 {
	k := ledgerName{id, text}
	i, ok := l.index[k]
	if !ok {
		i = uint32(len(l.names))
		l.names = append(l.names, k)
		l.index[k] = i
	}
	return i
}

// pack builds rec's entry, interning its names. Called with l.mu held.
func (l *Ledger) pack(rec *BanRecord) entry {
	e := entry{
		seq:        rec.Seq,
		delta:      rec.Delta,
		score:      rec.Score,
		traceID:    rec.TraceID,
		payloadLen: rec.PayloadLen,
		rule:       l.intern(rec.RuleID, rec.Rule),
		command:    l.intern(0, rec.Command),
		digest:     rec.PayloadDigest,
	}
	if rec.Banned {
		e.flags |= entryBanned
	}
	if !rec.At.IsZero() {
		e.at = rec.At.UnixNano()
		e.flags |= entryTimed
		if rec.At.Location() == time.UTC {
			e.flags |= entryUTC
		}
	}
	return e
}

// unpack rebuilds the BanRecord e was packed from. Called with l.mu held.
func (l *Ledger) unpack(id PeerID, e *entry) BanRecord {
	rule := l.names[e.rule]
	rec := BanRecord{
		Seq:           e.seq,
		Peer:          id,
		RuleID:        rule.id,
		Rule:          rule.text,
		Delta:         e.delta,
		Score:         e.score,
		Banned:        e.flags&entryBanned != 0,
		Command:       l.names[e.command].text,
		TraceID:       e.traceID,
		PayloadDigest: e.digest,
		PayloadLen:    e.payloadLen,
	}
	if e.flags&entryTimed != 0 {
		rec.At = time.Unix(0, e.at)
		if e.flags&entryUTC != 0 {
			rec.At = rec.At.UTC()
		}
	}
	return rec
}

// records rebuilds c's retained chain, oldest first (nil when empty). Called
// with l.mu held.
func (l *Ledger) records(id PeerID, c *chain) []BanRecord {
	entries := c.entries.Snapshot()
	if entries == nil {
		return nil
	}
	out := make([]BanRecord, len(entries))
	for i := range entries {
		out[i] = l.unpack(id, &entries[i])
	}
	return out
}

// Records returns the peer's chain, oldest first (nil when unknown).
func (l *Ledger) Records(id PeerID) []BanRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	c, ok := l.chains[id]
	if !ok {
		return nil
	}
	return l.records(id, c)
}

// Peers returns every peer with at least one record, ordered by first
// appearance.
func (l *Ledger) Peers() []PeerID {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.order.Snapshot()
}

// Total returns how many records were ever appended.
func (l *Ledger) Total() uint64 { return l.Stats().Total }

// LedgerStats is the records ever appended and the ledger's two loss counters.
type LedgerStats struct{ Total, EvictedPeers, TrimmedRecords uint64 }

// Stats returns the lifetime counters (zero for a nil ledger).
func (l *Ledger) Stats() (st LedgerStats) {
	if l != nil {
		l.mu.Lock()
		st = LedgerStats{l.total, l.order.Dropped(), l.trimmed}
		l.mu.Unlock()
	}
	return st
}

// ledgerSummary is one peer's row in the /debug/bans index.
type ledgerSummary struct {
	Peer     PeerID    `json:"peer"`
	Records  int       `json:"records"`
	Score    int       `json:"score"`
	Banned   bool      `json:"banned"`
	LastRule string    `json:"last_rule"`
	LastAt   time.Time `json:"last_at"`
}

// peerResponse is the /debug/bans/<peer> document.
type peerResponse struct {
	Peer            PeerID      `json:"peer"`
	CurrentlyBanned *bool       `json:"currently_banned,omitempty"`
	Records         []BanRecord `json:"records"`
}

// indexResponse is the /debug/bans document.
type indexResponse struct {
	Total   uint64          `json:"total"`
	Evicted uint64          `json:"evicted_peers"`
	Trimmed uint64          `json:"trimmed_records"`
	Peers   []ledgerSummary `json:"peers"`
}

// PathPeer returns the peer a request for prefix/<id> names, "" for prefix
// itself. A client escapes the identifier's ":" and "[]" as one path
// segment (url.PathEscape); net/http has decoded r.URL.Path once already,
// and a second decode would turn the zone "%12" of [fe80::1%12]:8333 into
// a byte.
func PathPeer(r *http.Request, prefix string) PeerID {
	return PeerID(strings.Trim(strings.TrimPrefix(r.URL.Path, prefix), "/"))
}

// Handler serves the ledger over HTTP. Mounted at /debug/bans it answers
//
//	/debug/bans          — per-peer summaries (records, last rule, score)
//	/debug/bans/<peer>   — the peer's complete ordered rule/delta/score chain
//
// isBanned, when non-nil, annotates responses with the peer's *current* ban
// state (pass Tracker.IsBanned); the record chains themselves are history
// and outlive the ban.
func (l *Ledger) Handler(isBanned func(PeerID) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		id := PathPeer(r, "/debug/bans")
		if id == "" {
			l.serveIndex(w, isBanned)
			return
		}
		records := l.Records(id)
		if records == nil {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "no forensics records for peer " + string(id)})
			return
		}
		resp := peerResponse{Peer: id, Records: records}
		if isBanned != nil {
			b := isBanned(id)
			resp.CurrentlyBanned = &b
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
}

func (l *Ledger) serveIndex(w http.ResponseWriter, isBanned func(PeerID) bool) {
	if l == nil {
		_ = json.NewEncoder(w).Encode(indexResponse{Peers: []ledgerSummary{}})
		return
	}
	l.mu.Lock()
	resp := indexResponse{
		Total:   l.total,
		Evicted: l.order.Dropped(),
		Trimmed: l.trimmed,
		Peers:   make([]ledgerSummary, 0, l.order.Len()),
	}
	for _, id := range l.order.Snapshot() {
		c := l.chains[id]
		var last BanRecord
		if e, ok := c.entries.Last(); ok {
			last = l.unpack(id, &e)
		}
		resp.Peers = append(resp.Peers, ledgerSummary{
			Peer:     id,
			Records:  c.entries.Len(),
			Score:    last.Score,
			Banned:   last.Banned,
			LastRule: last.Rule,
			LastAt:   last.At,
		})
	}
	l.mu.Unlock()
	if isBanned != nil {
		for i := range resp.Peers {
			resp.Peers[i].Banned = isBanned(resp.Peers[i].Peer)
		}
	}
	_ = json.NewEncoder(w).Encode(resp)
}
