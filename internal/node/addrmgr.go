package node

import (
	"math/rand"
	"sync"
)

// AddrManager is the node's peer table: the set of candidate peer addresses
// learned from configuration and ADDR gossip. The Defamation attack's
// end-goal is to shrink the usable portion of this table (peer-table
// diversity) by banning identifiers.
type AddrManager struct {
	mu    sync.Mutex
	addrs []string
	seen  map[string]struct{}
	rng   *rand.Rand
}

// NewAddrManager returns an empty table seeded deterministically.
func NewAddrManager(seed int64) *AddrManager {
	return &AddrManager{
		seen: make(map[string]struct{}),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Add inserts an address if new. It reports whether it was inserted.
func (a *AddrManager) Add(addr string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.seen[addr]; dup {
		return false
	}
	a.seen[addr] = struct{}{}
	a.addrs = append(a.addrs, addr)
	return true
}

// Count returns the number of known addresses.
func (a *AddrManager) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.addrs)
}

// Pick returns a random known address for which exclude returns false, or
// "" when none qualifies.
func (a *AddrManager) Pick(exclude func(addr string) bool) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.addrs) == 0 {
		return ""
	}
	start := a.rng.Intn(len(a.addrs))
	for i := 0; i < len(a.addrs); i++ {
		addr := a.addrs[(start+i)%len(a.addrs)]
		if exclude == nil || !exclude(addr) {
			return addr
		}
	}
	return ""
}

// All returns a copy of the known addresses.
func (a *AddrManager) All() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.addrs))
	copy(out, a.addrs)
	return out
}
