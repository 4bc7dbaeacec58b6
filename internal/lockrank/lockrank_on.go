//go:build poolpoison

package lockrank

import (
	"fmt"
	"math/bits"
	"sync"
)

// Mutex is a sync.Mutex of class C whose Lock checks C's rank against the
// locks the calling goroutine holds.
type Mutex[C Class] struct{ mu sync.Mutex }

func (m *Mutex[C]) Lock()   { acquire(rankOf[C]()); m.mu.Lock() }
func (m *Mutex[C]) Unlock() { m.mu.Unlock(); release(rankOf[C]()) }

// RWMutex is a sync.RWMutex of class C; a read lock is ranked like a write
// lock, since a reader waiting behind a writer blocks all the same.
type RWMutex[C Class] struct{ mu sync.RWMutex }

func (m *RWMutex[C]) Lock()    { acquire(rankOf[C]()); m.mu.Lock() }
func (m *RWMutex[C]) Unlock()  { m.mu.Unlock(); release(rankOf[C]()) }
func (m *RWMutex[C]) RLock()   { acquire(rankOf[C]()); m.mu.RLock() }
func (m *RWMutex[C]) RUnlock() { m.mu.RUnlock(); release(rankOf[C]()) }

func rankOf[C Class]() Rank {
	var c C
	return c.rank()
}

var (
	heldMu sync.Mutex
	// held maps a goroutine (gid) to the set of ranks it holds, one bit per
	// rank. A goroutine holding nothing has no entry.
	held = make(map[uintptr]uint64)
)

// acquire records r as held by the calling goroutine, or panics if the
// goroutine already holds a lock of rank r or above. It runs before the
// lock is taken, so an inversion panics instead of deadlocking.
func acquire(r Rank) {
	g := gid()
	heldMu.Lock()
	h := held[g]
	if h>>r != 0 {
		heldMu.Unlock()
		panic(fmt.Sprintf("lockrank: acquiring %s while holding %s", r, Rank(bits.Len64(h)-1)))
	}
	held[g] = h | 1<<r
	heldMu.Unlock()
}

// release drops r from the calling goroutine's held set. Releasing a rank
// the goroutine does not hold (an unlock from another goroutine) panics:
// the locker's set would otherwise keep the rank for good.
func release(r Rank) {
	g := gid()
	heldMu.Lock()
	h := held[g]
	if h&(1<<r) == 0 {
		heldMu.Unlock()
		panic(fmt.Sprintf("lockrank: releasing %s, which this goroutine does not hold", r))
	}
	if h &^= 1 << r; h == 0 {
		delete(held, g)
	} else {
		held[g] = h
	}
	heldMu.Unlock()
}
