// Package ring is the repository's one bounded, overwrite-oldest buffer: the
// telemetry journal, the trace span store, every forensics chain and the
// ledger's peer queue are each a Ring. A Ring has no lock (the owner's mutex
// guards it), no clock and no goroutine, and never reserves storage ahead of
// the elements pushed. Elements are numbered from 1 in push order and the
// retained ones are the consecutive numbers ending at Total, so Since finds
// its first element by position, not by scanning.
package ring

// Ring retains the newest limit elements pushed. Build one with New.
type Ring[T any] struct {
	buf     []T // grown by append up to limit, then overwritten in place
	head    int // index of the oldest element; 0 until the ring is full
	limit   int
	total   uint64
	dropped uint64
}

// New returns an empty ring retaining at most limit (one or more) elements.
func New[T any](limit int) Ring[T] { return Ring[T]{limit: limit} }

// Push appends v. A full ring overwrites its oldest element, counts it as
// dropped and returns it with evicted set.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	r.total++
	if len(r.buf) < r.limit {
		r.grow(v)
		return old, false
	}
	old, r.buf[r.head] = r.buf[r.head], v
	r.head = (r.head + 1) % r.limit
	r.dropped++
	return old, true
}

// grow keeps append, the only allocation a Ring makes, out of the hot path.
func (r *Ring[T]) grow(v T) { r.buf = append(r.buf, v) }

// Snapshot copies the retained elements out, oldest first (nil when empty).
func (r *Ring[T]) Snapshot() []T {
	items, _ := r.Since(0)
	return items
}

// Since copies out the retained elements numbered above seq, oldest first,
// and counts those above seq that are no longer retained — the loss a reader
// resuming from seq must know of. A seq at or past Total yields nothing.
func (r *Ring[T]) Since(seq uint64) (items []T, missed uint64) {
	if seq >= r.total {
		return nil, 0
	}
	n := len(r.buf)
	keep := int(min(r.total-seq, uint64(n)))
	missed = r.total - seq - uint64(keep)
	if keep == 0 {
		return nil, missed
	}
	start := (r.head + n - keep) % n
	items = append(make([]T, 0, keep), r.buf[start:min(start+keep, n)]...)
	return append(items, r.buf[:keep-len(items)]...), missed
}

// Last returns the newest retained element.
func (r *Ring[T]) Last() (v T, ok bool) {
	if n := len(r.buf); n > 0 {
		return r.buf[(r.head+n-1)%n], true
	}
	return v, false
}

// Len returns how many elements are retained, Limit how many can be.
func (r *Ring[T]) Len() int   { return len(r.buf) }
func (r *Ring[T]) Limit() int { return r.limit }

// Total returns how many elements were ever pushed — the number of the newest
// one — and Dropped how many of them were overwritten.
func (r *Ring[T]) Total() uint64   { return r.total }
func (r *Ring[T]) Dropped() uint64 { return r.dropped }

// Reset discards the retained elements; Total and Dropped keep counting.
func (r *Ring[T]) Reset() {
	clear(r.buf)
	r.buf, r.head = r.buf[:0], 0
}

// Load replaces the contents with the newest Limit of items (oldest first),
// restored from a history that had already lost `lost` older elements: Total
// becomes lost+len(items), Dropped lost plus the items that did not fit.
func (r *Ring[T]) Load(items []T, lost uint64) {
	excess := max(len(items)-r.limit, 0)
	r.Reset()
	r.buf = append(r.buf, items[excess:]...)
	r.total, r.dropped = lost+uint64(len(items)), lost+uint64(excess)
}
