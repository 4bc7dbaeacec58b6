package ring

// Cap reports the backing array's capacity, for the tests that prove storage
// is never reserved ahead of the elements pushed.
func (r *Ring[T]) Cap() int { return cap(r.buf) }
