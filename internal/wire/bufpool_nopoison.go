//go:build !poolpoison

package wire

// PoolPoisonEnabled reports whether released buffers are poisoned; see the
// poolpoison build tag.
const PoolPoisonEnabled = false

// poison is a no-op in normal builds; build with -tags poolpoison to
// overwrite released buffers and surface use-after-Release aliasing.
func poison([]byte) {}

// handedOut and returned keep the poolpoison build's balance count; in a
// normal build they are empty and inline away.
func handedOut(*Buf) {}
func returned(*Buf)  {}

// Outstanding is always zero in a normal build: only the poolpoison build
// counts buffers.
func Outstanding() int64 { return 0 }
