package telemetry

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; all methods are lock-free and safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one and returns the new count. Returning the post-increment
// value lets a hot path reuse the counter as its own sequence number (the
// node samples its latency histogram off it) instead of paying a second
// atomic op.
func (c *Counter) Inc() uint64 { return c.v.Add(1) }

// Add adds n and returns the new count.
func (c *Counter) Add(n uint64) uint64 { return c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits. The
// zero value is ready to use; all methods are lock-free and safe for
// concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: log-spaced upper bounds at powers of two from
// 2^histMinExp up to 2^histMaxExp, plus an implicit +Inf bucket. With
// observations in seconds this spans ~1µs message-handle latencies up to
// multi-hour time-to-ban distributions in 36 buckets.
const (
	histMinExp = -20 // 2^-20 s ≈ 0.95 µs
	histMaxExp = 14  // 2^14 s = 16384 s ≈ 4.6 h

	// HistogramBuckets is the number of finite buckets.
	HistogramBuckets = histMaxExp - histMinExp + 1
)

// bucketBounds holds the finite upper bounds, ascending.
var bucketBounds = func() [HistogramBuckets]float64 {
	var b [HistogramBuckets]float64
	for i := range b {
		b[i] = math.Ldexp(1, histMinExp+i)
	}
	return b
}()

// bucketIndex returns the finite bucket for v, or -1 when v exceeds every
// finite bound (counted only by the implicit +Inf bucket).
func bucketIndex(v float64) int {
	if v <= bucketBounds[0] {
		return 0
	}
	if v > bucketBounds[HistogramBuckets-1] {
		return -1
	}
	// v = f × 2^e with f in [0.5, 1): the smallest power-of-two bound
	// >= v is 2^(e-1) exactly when f == 0.5, else 2^e.
	f, e := math.Frexp(v)
	if f == 0.5 {
		e--
	}
	return e - histMinExp
}

// Histogram is a log-bucketed distribution metric. Observations are
// lock-free: one atomic add into the matching bucket, one into the count,
// and a CAS loop for the sum. The zero value is ready to use.
type Histogram struct {
	buckets [HistogramBuckets]atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if i := bucketIndex(v); i >= 0 {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds — the unit every latency histogram
// in this repository uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	// Buckets holds per-bucket (non-cumulative) observation counts,
	// parallel to bucketBounds. Observations above the last finite bound
	// appear only in Count.
	Buckets [HistogramBuckets]uint64
	Count   uint64
	Sum     float64
}

// Snapshot copies the histogram's current state. Concurrent observations
// may straddle the copy, so the cumulative bucket total and Count can differ
// transiently by in-flight observations; the exposition layer reports the
// +Inf bucket as the larger of the two to keep the output monotone.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Sum = h.Sum()
	s.Count = h.count.Load()
	return s
}

// Quantile estimates the q-th quantile (0..1) from the bucket counts,
// attributing each bucket's mass to its upper bound. It returns 0 for an
// empty histogram and +Inf when the quantile falls beyond the last finite
// bucket.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range s.Buckets {
		seen += c
		if seen >= rank {
			return bucketBounds[i]
		}
	}
	return math.Inf(1)
}
