package wire

import "sync"

// Size classes for pooled message buffers. Real traffic is dominated by
// tiny control messages (PING/PONG/INV), with a long tail up to the 32 MiB
// payload cap, so the classes step geometrically: a flood of small
// messages recycles the 256-byte class forever while an occasional block
// borrows a large buffer without poisoning the small pools.
var bufClasses = [...]int{256, 4 << 10, 64 << 10, 1 << 20, 4 << 20, MaxMessagePayload}

var bufPools [len(bufClasses)]sync.Pool

// Buf is a pooled, size-classed byte buffer holding one wire frame or
// payload. Ownership is explicit and single-holder:
//
//   - the function that returns a *Buf transfers ownership to the caller;
//   - exactly one Release (or Detach) ends that ownership;
//   - Bytes() is only valid until Release — retaining or aliasing it past
//     Release reads recycled memory (build with -tags poolpoison to make
//     such bugs loud: released buffers are overwritten with 0xdb).
//
// The poolpoison build counts every buffer GetBuf hands out against every
// Release or Detach, and its test binaries fail when one is still out at
// exit.
type Buf struct {
	b     []byte
	class int8 // index into bufPools, or -1 when not pool-owned
	live  bool // handed out and not yet returned (set by the poolpoison count)
}

// GetBuf returns a buffer of length n from the smallest fitting size
// class. Lengths above the largest class are served by a plain allocation
// that never enters a pool.
func GetBuf(n int) *Buf {
	for i, c := range bufClasses {
		if n <= c {
			b, _ := bufPools[i].Get().(*Buf)
			if b == nil {
				b = &Buf{b: make([]byte, 0, c), class: int8(i)}
			}
			b.b = b.b[:n]
			handedOut(b)
			return b
		}
	}
	b := &Buf{b: make([]byte, n), class: -1}
	handedOut(b)
	return b
}

// Bytes returns the buffer's contents. The slice is owned by the pool:
// it is valid only until Release.
func (b *Buf) Bytes() []byte {
	if b == nil {
		return nil
	}
	return b.b
}

// Len returns the buffer's current length. Nil-safe.
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	return len(b.b)
}

// Write appends p, growing the buffer if needed; it implements io.Writer
// so message encoders can target a Buf directly. Growth promotes the
// buffer to the next fitting size class through the pools, so encoders
// that start from a small class stay allocation-free at steady state.
func (b *Buf) Write(p []byte) (int, error) {
	b.putBytes(p)
	return len(p), nil
}

// room returns the buffer's contents with n bytes of capacity to append
// into; every append to a Buf goes through it, so growth stays on the
// size-class ladder.
func (b *Buf) room(n int) []byte {
	if len(b.b)+n > cap(b.b) {
		b.grow(len(b.b) + n)
	}
	return b.b
}

// grow moves the buffer's contents into a backing array of the smallest
// class holding need bytes, recycling the outgrown backing into its own
// class pool (by handing it to the *Buf box vacated by the pool Get) so a
// steady-state grow cycle performs no allocations. Past the largest class
// the buffer detaches and append takes over.
func (b *Buf) grow(need int) {
	ni := -1
	for i := range bufClasses {
		if need <= bufClasses[i] {
			ni = i
			break
		}
	}
	if ni < 0 {
		b.class = -1
		return
	}
	old := b.b
	oldClass := b.class
	if x, _ := bufPools[ni].Get().(*Buf); x != nil {
		b.b = append(x.b[:0], old...)
		if oldClass >= 0 && cap(old) >= bufClasses[oldClass] {
			poison(old)
			x.b = old[:0]
			x.class = oldClass
			bufPools[oldClass].Put(x)
		}
	} else {
		b.b = append(make([]byte, 0, bufClasses[ni]), old...)
	}
	b.class = int8(ni)
}

// Release returns the buffer to its size-class pool. It is nil-safe, and
// safe on detached buffers (no-op). After Release the Buf and any slice
// obtained from Bytes must not be used.
func (b *Buf) Release() {
	if b == nil {
		return
	}
	returned(b)
	if b.class < 0 {
		return
	}
	if cap(b.b) < bufClasses[b.class] {
		// Defensive: never seed a pool with an undersized backing array.
		return
	}
	poison(b.b)
	b.b = b.b[:0]
	bufPools[b.class].Put(b)
}

// Detach removes the buffer from pool management and returns its contents:
// the slice becomes an ordinary heap allocation the caller owns outright,
// and a later Release is a no-op. Compatibility paths that hand payloads to
// callers with no Release contract (wire.ReadMessage) use this.
func (b *Buf) Detach() []byte {
	if b == nil {
		return nil
	}
	returned(b)
	p := b.b
	b.class = -1
	return p
}
