package telemetry

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Add(-1.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	var g Gauge
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := g.Value(), float64(workers*perWorker)*0.5; got != want {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
}

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.Ldexp(1, histMinExp), 0},        // exactly the smallest bound
		{math.Ldexp(1, histMinExp) * 1.01, 1}, // just above it
		{1.0, -histMinExp},                    // bound 2^0
		{1.5, -histMinExp + 1},                // (1, 2]
		{2.0, -histMinExp + 1},                // upper bound inclusive
		{math.Ldexp(1, histMaxExp), HistogramBuckets - 1},
		{math.Ldexp(1, histMaxExp) + 1, -1}, // overflow -> +Inf only
	}
	for _, tc := range cases {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	// Every finite bound must land in its own bucket.
	for i, bound := range bucketBounds {
		if got := bucketIndex(bound); got != i {
			t.Errorf("bucketIndex(bound %v) = %d, want %d", bound, got, i)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(seed+1) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	var wantSum float64
	for w := 0; w < workers; w++ {
		wantSum += float64(w+1) * 1e-4 * perWorker
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	snap := h.Snapshot()
	var bucketTotal uint64
	for _, c := range snap.Buckets {
		bucketTotal += c
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(1e-6) // lowest buckets
	}
	for i := 0; i < 10; i++ {
		h.Observe(1.5) // lands in the (1, 2] bucket
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0.5); q > 1e-5 {
		t.Fatalf("p50 = %v, want tiny", q)
	}
	if q := snap.Quantile(0.99); q != 2.0 {
		t.Fatalf("p99 = %v, want 2.0 (upper bound of (1,2])", q)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("rx_total", L("command", "ping"))
	b := r.Counter("rx_total", L("command", "ping"))
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	other := r.Counter("rx_total", L("command", "tx"))
	if a == other {
		t.Fatal("different label values must be distinct series")
	}
	a.Inc()
	if other.Value() != 0 || b.Value() != 1 {
		t.Fatal("series state leaked between label values")
	}
}

func TestRegistryLabelOrderInsensitive(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("multi", L("a", "1"), L("b", "2"))
	b := r.Counter("multi", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order must not fork the series")
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total")
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge must panic")
		}
	}()
	r.Gauge("x_total")
}

func TestRegistryKindCollisionAcrossLabelsPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("y_total", L("command", "ping"))
	defer func() {
		if recover() == nil {
			t.Fatal("same family with a different kind must panic even for new labels")
		}
	}()
	r.Gauge("y_total", L("command", "tx"))
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	counters := make([]*Counter, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("contended_total", L("shard", fmt.Sprint(w%4)))
			c.Inc()
			counters[w] = c
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, s := range r.Gather() {
		if s.Name == "contended_total" {
			total += uint64(s.Value)
		}
	}
	if total != 16 {
		t.Fatalf("total increments = %d, want 16", total)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("cmd_total", "command")
	vec.With("ping").Inc()
	vec.With("ping").Inc()
	vec.With("tx").Inc()
	if got := r.Counter("cmd_total", L("command", "ping")).Value(); got != 2 {
		t.Fatalf("ping = %d, want 2 (vec and direct access must share series)", got)
	}
	if got := vec.With("tx").Value(); got != 1 {
		t.Fatalf("tx = %d, want 1", got)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	vec := r.GaugeVec("depth", "direction")
	vec.With("inbound").Set(3)
	if got := r.Gauge("depth", L("direction", "inbound")).Value(); got != 3 {
		t.Fatalf("gauge via vec = %v, want 3", got)
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.GaugeFunc("pull_gauge", func() float64 { return n })
	r.CounterFunc("pull_total", func() float64 { return 7 })
	n = 42
	byName := map[string]float64{}
	for _, s := range r.Gather() {
		byName[s.Name] = s.Value
	}
	if byName["pull_gauge"] != 42 {
		t.Fatalf("pull_gauge = %v, want 42 (read at gather time)", byName["pull_gauge"])
	}
	if byName["pull_total"] != 7 {
		t.Fatalf("pull_total = %v, want 7", byName["pull_total"])
	}
}

func TestJournalWraparound(t *testing.T) {
	j := NewJournal(4)
	for i := 1; i <= 10; i++ {
		j.Record(Event{Type: EventScore, Value: float64(i), At: time.Unix(int64(i), 0)})
	}
	if j.Total() != 10 {
		t.Fatalf("total = %d, want 10", j.Total())
	}
	events := j.Events()
	if len(events) != 4 {
		t.Fatalf("retained = %d, want 4", len(events))
	}
	for i, ev := range events {
		wantSeq := uint64(7 + i)
		if ev.Seq != wantSeq || ev.Value != float64(wantSeq) {
			t.Fatalf("event[%d] = seq %d value %v, want seq %d (oldest-first after wrap)",
				i, ev.Seq, ev.Value, wantSeq)
		}
	}
}

func TestJournalPartialFill(t *testing.T) {
	j := NewJournal(8)
	j.Record(Event{Type: EventBan})
	j.Record(Event{Type: EventScore})
	events := j.Events()
	if len(events) != 2 || events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("partial fill events = %+v", events)
	}
	if events[0].At.IsZero() {
		t.Fatal("Record must stamp a zero At")
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Record(Event{Type: EventScore})
			}
		}()
	}
	wg.Wait()
	if j.Total() != 4000 {
		t.Fatalf("total = %d, want 4000", j.Total())
	}
	events := j.Events()
	if len(events) != 64 {
		t.Fatalf("retained = %d, want 64", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestNilJournalIsNoop(t *testing.T) {
	var j *Journal
	j.Record(Event{Type: EventBan}) // must not panic
	if j.Events() != nil || j.Total() != 0 || j.Len() != 0 || j.Capacity() != 0 {
		t.Fatal("nil journal must be a silent sink")
	}
}
