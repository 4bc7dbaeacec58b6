package ring_test

import (
	"math/rand"
	"slices"
	"testing"

	"banscore/internal/ring"
)

// model is the reference a Ring is checked against: a plain slice of
// numbered values, trimmed from the front, with every query a linear scan.
type model struct {
	limit          int
	items          []numbered
	total, dropped uint64
}

type numbered struct {
	n uint64
	v int
}

func (m *model) push(v int) (old int, evicted bool) {
	m.total++
	m.items = append(m.items, numbered{m.total, v})
	if len(m.items) <= m.limit {
		return 0, false
	}
	old, m.items = m.items[0].v, m.items[1:]
	m.dropped++
	return old, true
}

func (m *model) since(seq uint64) (vals []int, missed uint64) {
	for _, it := range m.items {
		if it.n > seq {
			vals = append(vals, it.v)
		}
	}
	if seq < m.total {
		missed = m.total - seq - uint64(len(vals))
	}
	return vals, missed
}

func (m *model) load(vals []int, lost uint64) {
	m.items, m.total, m.dropped = nil, lost, lost
	for _, v := range vals {
		m.push(v)
	}
}

// ringLimits straddle one element, the smallest ring that wraps with a
// neighbour, and both sides of the ledger's default chain length.
var ringLimits = []int{1, 2, 255, 256, 257}

// ringDriver runs one op stream against a Ring and the model and counts the
// edges the stream reached.
type ringDriver struct {
	t                             testing.TB
	r                             ring.Ring[int]
	m                             *model
	next                          int // next value to push; every element is distinct
	wrapped, behind, ahead        int
	resets, loadsOver, loadsUnder int
}

func (d *ringDriver) values(n int) []int {
	vals := make([]int, n)
	for i := range vals {
		d.next++
		vals[i] = d.next
	}
	return vals
}

// check compares every observable of the two.
func (d *ringDriver) check(op string) {
	d.t.Helper()
	if d.r.Len() != len(d.m.items) || d.r.Limit() != d.m.limit || d.r.Total() != d.m.total || d.r.Dropped() != d.m.dropped {
		d.t.Fatalf("%s: ring len=%d limit=%d total=%d dropped=%d, model len=%d limit=%d total=%d dropped=%d", op,
			d.r.Len(), d.r.Limit(), d.r.Total(), d.r.Dropped(), len(d.m.items), d.m.limit, d.m.total, d.m.dropped)
	}
	want, _ := d.m.since(0)
	if got := d.r.Snapshot(); !slices.Equal(got, want) {
		d.t.Fatalf("%s: ring holds %v, model %v", op, got, want)
	}
	last, ok := d.r.Last()
	if ok != (len(want) > 0) || (ok && last != want[len(want)-1]) {
		d.t.Fatalf("%s: ring Last = %d,%v, model holds %v", op, last, ok, want)
	}
}

// run interprets ops three bytes at a time: opcode, then two argument bytes.
func (d *ringDriver) run(limit int, ops []byte) {
	d.r, d.m = ring.New[int](limit), &model{limit: limit}
	for ; len(ops) >= 3; ops = ops[3:] {
		code, a, b := ops[0]%8, ops[1], ops[2]
		arg := uint64(a)<<8 | uint64(b)
		switch {
		case code < 4: // push
			d.next++
			gotOld, gotEv := d.r.Push(d.next)
			wantOld, wantEv := d.m.push(d.next)
			if gotOld != wantOld || gotEv != wantEv {
				d.t.Fatalf("push: ring evicted %d,%v, model %d,%v", gotOld, gotEv, wantOld, wantEv)
			}
			if gotEv {
				d.wrapped++
			}
		case code < 6: // since: inside the window, behind it, or at and past the newest
			first := d.m.total - uint64(len(d.m.items)) // number just before the window
			var seq uint64
			switch a % 4 {
			case 0:
				seq = first + arg%uint64(len(d.m.items)+1)
			case 1:
				seq = first - min(first, uint64(b%4))
			case 2:
				seq = uint64(b) % (first + 1)
			case 3:
				seq = d.m.total + uint64(b%3)
			}
			got, gotMissed := d.r.Since(seq)
			want, wantMissed := d.m.since(seq)
			if !slices.Equal(got, want) || gotMissed != wantMissed {
				d.t.Fatalf("since(%d) of %d..%d: ring %v missed %d, model %v missed %d",
					seq, first+1, d.m.total, got, gotMissed, want, wantMissed)
			}
			if gotMissed > 0 {
				d.behind++
			}
			if seq >= d.m.total {
				d.ahead++
			}
		case code == 6 && b%16 == 0: // reset
			d.r.Reset()
			d.m.items = nil
			d.resets++
		case code == 7 && b%4 == 0: // load up to twice the limit, after up to 7 already lost
			vals := d.values(int(arg>>2) % (2*limit + 2))
			lost := uint64(a >> 5)
			d.r.Load(vals, lost)
			d.m.load(vals, lost)
			if len(vals) > limit {
				d.loadsOver++
			} else {
				d.loadsUnder++
			}
		}
		d.check("op")
	}
}

// TestRingMatchesModel drives the ring and the slice reference through
// identical seeded op sequences at every limit and requires identical
// contents, counters and evicted elements — over sequences that must have
// wrapped, queried behind and ahead of the window, reset and loaded both
// over and under the limit.
func TestRingMatchesModel(t *testing.T) {
	nOps := 4000
	if testing.Short() {
		nOps = 1500
	}
	for _, limit := range ringLimits {
		d := &ringDriver{t: t}
		for seed := int64(1); seed <= 3; seed++ {
			ops := make([]byte, 3*nOps)
			rand.New(rand.NewSource(seed)).Read(ops)
			d.run(limit, ops)
		}
		t.Logf("limit %d: %d overwriting pushes, %d reads behind the window, %d at or ahead of it, %d resets, loads %d over / %d under",
			limit, d.wrapped, d.behind, d.ahead, d.resets, d.loadsOver, d.loadsUnder)
		if d.wrapped == 0 || d.behind == 0 || d.ahead == 0 || d.resets == 0 || d.loadsOver == 0 || d.loadsUnder == 0 {
			t.Fatalf("limit %d: the op sequences missed an edge (see the log line above)", limit)
		}
	}
}

// FuzzRing exposes the same driver to the fuzzer. The committed corpus
// (testdata/fuzz/FuzzRing) holds one hand-written sequence per edge: wrap,
// since behind and ahead of the window, reset then refill, load over and
// under the limit.
func FuzzRing(f *testing.F) {
	f.Fuzz(func(t *testing.T, limit byte, ops []byte) {
		if len(ops) > 3*1024 {
			ops = ops[:3*1024]
		}
		(&ringDriver{t: t}).run(ringLimits[int(limit)%len(ringLimits)], ops)
	})
}
