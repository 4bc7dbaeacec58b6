//go:build poolpoison

package wire

import "sync/atomic"

// PoolPoisonEnabled reports whether released buffers are poisoned. Tests
// assert on it so the poolpoison suite fails loudly when run without the
// tag instead of silently passing.
const PoolPoisonEnabled = true

// poison overwrites a released buffer's full capacity with 0xdb so any
// alias read after Release returns garbage deterministically instead of
// whichever message recycled the buffer next.
func poison(p []byte) {
	p = p[:cap(p)]
	for i := range p {
		p[i] = 0xdb
	}
}

// outstanding is the balance count: buffers GetBuf handed out (and so
// EncodeMessage and Codec.DecodeMessage) less those Release or Detach
// returned. One atomic and the Buf's live flag, so counting allocates
// nothing and the zero-alloc tests still hold under this build.
var outstanding atomic.Int64

func handedOut(b *Buf) {
	b.live = true
	outstanding.Add(1)
}

// returned counts b back once: a second Release, or a Release after
// Detach, finds it no longer live.
func returned(b *Buf) {
	if b.live {
		b.live = false
		outstanding.Add(-1)
	}
}

// Outstanding reports how many buffers are handed out and not yet
// returned. leakcheck.Main fails a test binary when it is not zero at exit.
func Outstanding() int64 { return outstanding.Load() }
