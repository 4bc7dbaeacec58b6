package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// funcMetric is a pull-style series: the value is computed by a callback at
// gather time. Used for state that already lives elsewhere (connection-slot
// occupancy, per-peer byte totals) so the hot path pays nothing.
type funcMetric struct {
	fn func() float64
}

// series is one registered (name, labels) metric instance.
type series struct {
	name     string
	labels   []Label // sorted by key
	labelKey string  // serialized sorted labels, series identity
	kind     Kind
	metric   any // *Counter, *Gauge, *Histogram, or *funcMetric
}

// family carries per-name metadata shared by all series of that name.
type family struct {
	kind Kind
	help string
}

// Registry holds labeled metric series. GetOrCreate accessors (Counter,
// Gauge, Histogram) are cheap enough for hot paths — a hit is one lock-free
// map load — and Vec caches make repeated single-label lookups allocation
// free. All methods are safe for concurrent use.
type Registry struct {
	series sync.Map // string (name + labelKey) -> *series

	mu       sync.Mutex // guards creation and families
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// seriesKey serializes the identity of a (name, labels) pair. labels must
// already be sorted.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('\xff')
		b.WriteString(l.Key)
		b.WriteByte('\xfe')
		b.WriteString(l.Value)
	}
	return b.String()
}

// getOrCreate returns the series for (name, labels), creating it on first
// use. Re-registering the same name with a different kind is a programming
// error and panics — silently returning a fresh metric would fork the
// series and lose increments.
func (r *Registry) getOrCreate(name string, kind Kind, labels []Label, build func() any) *series {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	if v, ok := r.series.Load(key); ok {
		s := v.(*series)
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q requested as %s but registered as %s", name, kind, s.kind))
		}
		return s
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.series.Load(key); ok { // lost the creation race
		s := v.(*series)
		if s.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q requested as %s but registered as %s", name, kind, s.kind))
		}
		return s
	}
	fam, ok := r.families[name]
	if !ok {
		fam = &family{kind: kind}
		r.families[name] = fam
	} else if fam.kind == 0 {
		// Family pre-created by Describe before any series existed.
		fam.kind = kind
	} else if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q requested as %s but registered as %s", name, kind, fam.kind))
	}
	s := &series{name: name, labels: labels, labelKey: key[len(name):], kind: kind, metric: build()}
	r.series.Store(key, s)
	return s
}

// Counter returns the counter series for (name, labels), creating it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.getOrCreate(name, KindCounter, labels, func() any { return new(Counter) }).metric.(*Counter)
}

// Gauge returns the gauge series for (name, labels), creating it on first
// use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.getOrCreate(name, KindGauge, labels, func() any { return new(Gauge) }).metric.(*Gauge)
}

// Histogram returns the histogram series for (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.getOrCreate(name, KindHistogram, labels, func() any { return new(Histogram) }).metric.(*Histogram)
}

// CounterFunc registers a pull-style counter whose value is read from fn at
// gather time. fn must be monotone and safe for concurrent use.
func (r *Registry) CounterFunc(name string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, KindCounter, labels, func() any { return &funcMetric{fn: fn} })
}

// GaugeFunc registers a pull-style gauge whose value is read from fn at
// gather time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, KindGauge, labels, func() any { return &funcMetric{fn: fn} })
}

// Describe attaches HELP text to a metric name. The first non-empty help
// string wins; exposition emits it verbatim.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{}
		r.families[name] = fam
	}
	if fam.help == "" {
		fam.help = help
	}
}

// CounterVec caches counters of one family keyed by a single label value —
// the hot-path shape of per-command and per-rule counters. With is one
// lock-free map load on the hit path and allocates nothing.
type CounterVec struct {
	reg      *Registry
	name     string
	labelKey string
	cache    sync.Map // label value -> *Counter
}

// CounterVec returns a single-label counter family accessor.
func (r *Registry) CounterVec(name, labelKey string) *CounterVec {
	return &CounterVec{reg: r, name: name, labelKey: labelKey}
}

// With returns the counter for the given label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	if c, ok := v.cache.Load(value); ok {
		return c.(*Counter)
	}
	c := v.reg.Counter(v.name, L(v.labelKey, value))
	actual, _ := v.cache.LoadOrStore(value, c)
	return actual.(*Counter)
}

// Total sums every counter in the family. A scrape-time aggregate: the
// node reports total messages processed as the sum of its per-command
// counters rather than keeping a separate (and redundant) atomic.
func (v *CounterVec) Total() uint64 {
	var total uint64
	v.cache.Range(func(_, c any) bool {
		total += c.(*Counter).Value()
		return true
	})
	return total
}

// GaugeVec is the Gauge analogue of CounterVec.
type GaugeVec struct {
	reg      *Registry
	name     string
	labelKey string
	cache    sync.Map // label value -> *Gauge
}

// GaugeVec returns a single-label gauge family accessor.
func (r *Registry) GaugeVec(name, labelKey string) *GaugeVec {
	return &GaugeVec{reg: r, name: name, labelKey: labelKey}
}

// With returns the gauge for the given label value, creating it on first
// use.
func (v *GaugeVec) With(value string) *Gauge {
	if g, ok := v.cache.Load(value); ok {
		return g.(*Gauge)
	}
	g := v.reg.Gauge(v.name, L(v.labelKey, value))
	actual, _ := v.cache.LoadOrStore(value, g)
	return actual.(*Gauge)
}

// Sample is one gathered series value.
type Sample struct {
	Name   string
	Labels []Label
	Kind   Kind

	// Value holds the counter or gauge value. Unused for histograms.
	Value float64

	// Histogram holds the snapshot for histogram series.
	Histogram *HistogramSnapshot
}

// Gather snapshots every registered series, sorted by name then label set —
// a stable order the exposition formats and golden tests rely on.
func (r *Registry) Gather() []Sample {
	var out []Sample
	r.series.Range(func(_, v any) bool {
		s := v.(*series)
		sample := Sample{Name: s.name, Labels: s.labels, Kind: s.kind}
		switch m := s.metric.(type) {
		case *Counter:
			sample.Value = float64(m.Value())
		case *Gauge:
			sample.Value = m.Value()
		case *Histogram:
			snap := m.Snapshot()
			sample.Histogram = &snap
		case *funcMetric:
			sample.Value = m.fn()
		}
		out = append(out, sample)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKeyOf(out[i].Labels) < labelKeyOf(out[j].Labels)
	})
	return out
}

// Help returns the registered HELP text for name.
func (r *Registry) Help(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fam, ok := r.families[name]; ok {
		return fam.help
	}
	return ""
}

// SeriesCount returns the number of registered series.
func (r *Registry) SeriesCount() int {
	n := 0
	r.series.Range(func(_, _ any) bool { n++; return true })
	return n
}

func labelKeyOf(labels []Label) string { return seriesKey("", labels) }
