package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// ledgerModel is the reference a Ledger is checked against: every chain a
// plain []BanRecord trimmed from the front, the peer order a slice, and
// every operation written out the way the Ledger's contract states it.
type ledgerModel struct {
	maxPeers, maxPerPeer    int
	peers                   []PeerID
	chains                  map[PeerID]*modelChain
	total, evicted, trimmed uint64
}

type modelChain struct {
	seq  uint64
	recs []BanRecord
}

func newLedgerModel(maxPeers, maxPerPeer int) *ledgerModel {
	return &ledgerModel{maxPeers: maxPeers, maxPerPeer: maxPerPeer, chains: map[PeerID]*modelChain{}}
}

// add is Append (rec.Seq zeroed) and Restore.
func (m *ledgerModel) add(rec BanRecord) uint64 {
	c := m.chains[rec.Peer]
	if c == nil {
		m.peers = append(m.peers, rec.Peer)
		if len(m.peers) > m.maxPeers {
			delete(m.chains, m.peers[0])
			m.peers = m.peers[1:]
			m.evicted++
		}
		c = &modelChain{}
		m.chains[rec.Peer] = c
	}
	if rec.Seq == 0 {
		rec.Seq = c.seq + 1
	} else if rec.Seq <= c.seq {
		return c.seq
	}
	c.seq = rec.Seq
	c.recs = append(c.recs, rec)
	if len(c.recs) > m.maxPerPeer {
		c.recs = c.recs[1:]
		m.trimmed++
	}
	m.total++
	return c.seq
}

func (m *ledgerModel) records(id PeerID) []BanRecord {
	c := m.chains[id]
	if c == nil || len(c.recs) == 0 {
		return nil
	}
	return append([]BanRecord(nil), c.recs...)
}

func (m *ledgerModel) export() LedgerState {
	st := LedgerState{MaxPeers: m.maxPeers, MaxPerPeer: m.maxPerPeer, Chains: []LedgerChain{},
		Total: m.total, Evicted: m.evicted, Trimmed: m.trimmed}
	for _, id := range m.peers {
		st.Chains = append(st.Chains, LedgerChain{Peer: id, Seq: m.chains[id].seq, Records: m.records(id)})
	}
	return st
}

// importState keeps the newest chains and records that fit the model's own
// caps and counts the rest as evicted and trimmed.
func (m *ledgerModel) importState(st LedgerState) {
	m.peers, m.chains = nil, map[PeerID]*modelChain{}
	m.total, m.evicted, m.trimmed = st.Total, st.Evicted, st.Trimmed
	chains := st.Chains
	if over := len(chains) - m.maxPeers; over > 0 {
		chains, m.evicted = chains[over:], m.evicted+uint64(over)
	}
	for _, ec := range chains {
		recs := ec.Records
		if over := len(recs) - m.maxPerPeer; over > 0 {
			recs, m.trimmed = recs[over:], m.trimmed+uint64(over)
		}
		m.peers = append(m.peers, ec.Peer)
		m.chains[ec.Peer] = &modelChain{seq: ec.Seq, recs: append([]BanRecord(nil), recs...)}
	}
}

// index is the /debug/bans document the model's state serves.
func (m *ledgerModel) index() indexResponse {
	doc := indexResponse{Total: m.total, Evicted: m.evicted, Trimmed: m.trimmed, Peers: []ledgerSummary{}}
	for _, id := range m.peers {
		var last BanRecord
		recs := m.chains[id].recs
		if len(recs) > 0 {
			last = recs[len(recs)-1]
		}
		doc.Peers = append(doc.Peers, ledgerSummary{Peer: id, Records: len(recs), Score: last.Score,
			Banned: last.Banned, LastRule: last.Rule, LastAt: last.At})
	}
	return doc
}

// The values records draw their fields from: the zero time, both ends of
// the UnixNano range the WAL can encode, UTC and Local times; CKB-mode
// negative deltas and both ends of int; rule IDs outside Table I; names a
// rule and a command share or do not.
var (
	modelTimes = []time.Time{{}, time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64),
		time.Date(2026, 9, 1, 12, 0, 0, 0, time.UTC), time.Unix(1700000000, 123)}
	modelInts  = []int{0, 1, 20, 100, -1, -20, math.MinInt, math.MaxInt}
	modelRules = []RuleID{AddrOversize, VersionDuplicate, 0, -1, math.MinInt, math.MaxInt}
	modelNames = []string{"AddrOversize", "VersionDuplicate", "", "addr", "version", "\x00ü"}
	modelU64   = []uint64{0, 1, 1 << 63, math.MaxUint64}
	modelU32   = []uint32{0, 0xfeedbeef, math.MaxUint32}
)

// ledgerLimits are the caps both sides of a ledger run at: one slot, the
// smallest that keeps a neighbour, and the default chain length.
var ledgerLimits = []int{1, 2, DefaultLedgerPerPeer}

// ledgerHarness runs one op stream against a Ledger and the model and counts
// the edges the stream reached.
type ledgerHarness struct {
	t       testing.TB
	l       *Ledger
	m       *ledgerModel
	foreign *ledgerModel // the exporter ImportState restores from, at other caps
	n       uint64       // records built so far; mixed into every field choice

	evictions, trims, gaps, dups, stamped, imports, importLosses, zeroAt, negDelta int
}

// record builds a distinct record for peer from the op's argument bytes.
func (d *ledgerHarness) record(peer PeerID, a, b, c byte) BanRecord {
	d.n++
	h := (uint64(a)<<16 | uint64(b)<<8 | uint64(c) | d.n<<24) * 0x9e3779b97f4a7c15
	pick := func(n int) int {
		v := int(h % uint64(n))
		h = h/uint64(n) ^ h<<7
		return v
	}
	rec := BanRecord{
		At:            modelTimes[pick(len(modelTimes))],
		Peer:          peer,
		RuleID:        modelRules[pick(len(modelRules))],
		Rule:          modelNames[pick(len(modelNames))],
		Delta:         modelInts[pick(len(modelInts))],
		Score:         modelInts[pick(len(modelInts))],
		Banned:        pick(2) == 1,
		Command:       modelNames[pick(len(modelNames))],
		TraceID:       modelU64[pick(len(modelU64))] + d.n,
		PayloadDigest: modelU32[pick(len(modelU32))],
		PayloadLen:    modelInts[pick(len(modelInts))],
	}
	if rec.At.IsZero() {
		d.zeroAt++
	} else if rec.At.Location() == time.UTC {
		rec.At = rec.At.Add(time.Duration(d.n) * time.Second)
	}
	if rec.Delta < 0 {
		d.negDelta++
	}
	return rec
}

// peer picks one of the model's peer cap plus three identities, one of them
// hot enough to overflow a default-length chain.
func (d *ledgerHarness) peer(a, b byte) PeerID {
	if b%2 == 0 {
		return "10.0.0.1:8333"
	}
	return d.peerAt(int(a)<<8 | int(b))
}

func (d *ledgerHarness) peerAt(n int) PeerID {
	return PeerID("[::1]:" + strconv.Itoa(n%(d.m.maxPeers+3)))
}

// check compares what every op can change; full compares ExportState and the
// /debug/bans index too.
func (d *ledgerHarness) check(op string, peer PeerID, full bool) {
	d.t.Helper()
	st := d.l.Stats()
	if want := (LedgerStats{d.m.total, d.m.evicted, d.m.trimmed}); st != want {
		d.t.Fatalf("%s: ledger stats %+v, model %+v", op, st, want)
	}
	if got, want := d.l.Peers(), d.m.peers; len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		d.t.Fatalf("%s: ledger peers %q, model %q", op, got, want)
	}
	if got, want := d.l.Records(peer), d.m.records(peer); !reflect.DeepEqual(got, want) {
		d.t.Fatalf("%s: chain %q\n ledger %+v\n model  %+v", op, peer, got, want)
	}
	if !full {
		return
	}
	if got, want := d.l.ExportState(), d.m.export(); !reflect.DeepEqual(got, want) {
		d.t.Fatalf("%s: ExportState\n ledger %+v\n model  %+v", op, got, want)
	}
	rec := httptest.NewRecorder()
	d.l.Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/bans", nil))
	want, err := json.Marshal(d.m.index())
	if err != nil {
		d.t.Fatal(err)
	}
	if got := bytes.TrimSuffix(rec.Body.Bytes(), []byte("\n")); !bytes.Equal(got, want) {
		d.t.Fatalf("%s: /debug/bans\n ledger %s\n model  %s", op, got, want)
	}
}

// run interprets ops four bytes at a time: opcode, then three argument bytes.
func (d *ledgerHarness) run(maxPeers, maxPerPeer int, ops []byte) {
	d.l, d.m = NewLedger(maxPeers, maxPerPeer), newLedgerModel(maxPeers, maxPerPeer)
	d.foreign = newLedgerModel(ledgerLimits[0], ledgerLimits[0])
	for ; len(ops) >= 4; ops = ops[4:] {
		code, a, b, c := ops[0]%16, ops[1], ops[2], ops[3]
		peer := d.peer(a, b)
		evicted, trimmed := d.m.evicted, d.m.trimmed
		op := "append"
		switch {
		case code < 8:
			rec := d.record(peer, a, b, c)
			stamped := rec
			stamped.Seq = uint64(c) + 1 // Append ignores the caller's stamp
			if got, want := d.l.Append(stamped), d.m.add(rec); got != want {
				d.t.Fatalf("append to %q stamped %d, model %d", peer, got, want)
			}
		case code < 12: // restore: stamped, duplicate, next or past a gap
			op = "restore"
			rec := d.record(peer, a, b, c)
			var seq uint64
			if mc := d.m.chains[peer]; mc != nil {
				seq = mc.seq
			}
			switch c % 8 {
			case 0:
				rec.Seq = 0
				d.stamped++
			case 1, 2:
				rec.Seq = 1 + uint64(a)%max(seq, 1)
				if rec.Seq <= seq {
					d.dups++
				}
			case 3, 4:
				rec.Seq = seq + 1
			case 5, 6:
				rec.Seq = seq + 2 + uint64(a%5)
				d.gaps++
			case 7:
				rec.Seq = math.MaxUint64 - uint64(a%2) // the counter wraps on the next stamp
			}
			d.l.Restore(rec)
			d.m.add(rec)
		case code == 12: // a burst into one chain, or across every peer, long enough to overflow the default caps
			op = "burst"
			for i := range 2*int(c) + 2 {
				p := peer
				if a%2 == 1 {
					p = d.peerAt(i)
				}
				rec := d.record(p, a, b, c+byte(i))
				if got, want := d.l.Append(rec), d.m.add(rec); got != want {
					d.t.Fatalf("burst append to %q stamped %d, model %d", p, got, want)
				}
			}
		case code == 13: // a burst into the foreign exporter
			op = "foreign burst"
			for i := range 2*int(c) + 2 {
				d.foreign.add(d.record(d.peer(b, a), a, b, c+byte(i)))
			}
		case code == 14 && c%4 == 0: // import the foreign state; the caps of the next one change
			op = "import"
			st := d.foreign.export()
			d.l.ImportState(st)
			d.m.importState(d.foreign.export()) // a copy of its own: the model keeps the slices
			d.imports++
			if d.m.evicted > st.Evicted || d.m.trimmed > st.Trimmed {
				d.importLosses++
			}
			caps := []int{1, 2, 3, 5, 300}
			d.foreign = newLedgerModel(caps[a%5], caps[b%5])
			d.check(op, peer, true)
			continue
		case code == 15 && c%8 == 0:
			op = "export"
			d.check(op, peer, true)
			continue
		}
		if d.m.evicted > evicted {
			d.evictions++
		}
		if d.m.trimmed > trimmed {
			d.trims++
		}
		d.check(op, peer, false)
	}
	d.check("end", d.peer(0, 1), true)
}

// TestLedgerMatchesModel drives the ledger and the slice reference through
// identical seeded op sequences at every pair of caps and requires identical
// chains, peer order, counters, exports and /debug/bans index — over streams
// that must have evicted peers, trimmed chains, restored duplicates, gaps
// and unstamped records, imported a foreign state with losses, and carried
// zero times and negative deltas.
func TestLedgerMatchesModel(t *testing.T) {
	nOps := 3000
	if testing.Short() {
		nOps = 1200
	}
	for _, maxPeers := range ledgerLimits {
		for _, maxPerPeer := range ledgerLimits {
			d := &ledgerHarness{t: t}
			for seed := int64(1); seed <= 3; seed++ {
				ops := make([]byte, 4*nOps)
				rand.New(rand.NewSource(seed)).Read(ops)
				d.run(maxPeers, maxPerPeer, ops)
			}
			t.Logf("caps %d×%d: %d evicting ops, %d trimming, %d duplicate restores, %d past a gap, %d unstamped, %d imports (%d lossy), %d zero times, %d negative deltas",
				maxPeers, maxPerPeer, d.evictions, d.trims, d.dups, d.gaps, d.stamped, d.imports, d.importLosses, d.zeroAt, d.negDelta)
			if d.evictions == 0 || d.trims == 0 || d.dups == 0 || d.gaps == 0 || d.stamped == 0 ||
				d.imports == 0 || d.importLosses == 0 || d.zeroAt == 0 || d.negDelta == 0 {
				t.Fatalf("caps %d×%d: the op sequences missed an edge (see the log line above)", maxPeers, maxPerPeer)
			}
		}
	}
}

// FuzzLedger exposes the same harness to the fuzzer, one seeded op stream per
// pair of caps. A stream is cut at 256 ops: the model's checks cost far more
// under the fuzzer's instrumentation.
func FuzzLedger(f *testing.F) {
	for i := range len(ledgerLimits) * len(ledgerLimits) {
		ops := make([]byte, 4*256)
		rand.New(rand.NewSource(int64(i + 1))).Read(ops)
		f.Add(byte(i), ops)
	}
	f.Fuzz(func(t *testing.T, caps byte, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		n := len(ledgerLimits)
		(&ledgerHarness{t: t}).run(ledgerLimits[int(caps)%n], ledgerLimits[int(caps)/n%n], ops)
	})
}
