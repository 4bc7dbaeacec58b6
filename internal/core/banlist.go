package core

import (
	"net"
	"time"

	"banscore/internal/lockrank"
)

// PeerID is the connection identifier a ban applies to: the [IP:Port] pair,
// exactly as the paper defines it. The Defamation attack works because this
// identifier is spoofable in the permissionless network.
type PeerID string

// PeerIDFromAddr builds a PeerID from a "host:port" address string.
func PeerIDFromAddr(addr string) PeerID { return PeerID(addr) }

// IP returns the IP half of the identifier, or nil if unparseable.
func (id PeerID) IP() net.IP {
	host, _, err := net.SplitHostPort(string(id))
	if err != nil {
		return nil
	}
	return net.ParseIP(host)
}

// DefaultBanDuration is Bitcoin Core's default 24-hour ban.
const DefaultBanDuration = 24 * time.Hour

// BanList is the banning filter: the set of banned connection identifiers
// with their expiry times. It is safe for concurrent use.
//
// The set is sharded by identifier hash so concurrent peers (every inbound
// accept and every dispatched message consults IsBanned) contend only when
// they collide on a shard, and the per-shard lock is an RWMutex so the
// read-mostly IsBanned fast path never serializes readers at all: the
// write lock is taken only to ban, unban, or prune an expired entry.
type BanList struct {
	now    func() time.Time
	mask   uint32
	shards []banShard
}

type banShard struct {
	mu     lockrank.RWMutex[lockrank.BanListShard]
	banned map[PeerID]time.Time
}

// NewBanList returns an empty ban list using the given clock (nil selects
// time.Now).
func NewBanList(clock func() time.Time) *BanList {
	if clock == nil {
		clock = time.Now
	}
	n := PickShardCount(0)
	b := &BanList{now: clock, mask: uint32(n - 1), shards: make([]banShard, n)}
	for i := range b.shards {
		b.shards[i].banned = make(map[PeerID]time.Time)
	}
	return b
}

// ShardCount returns how many independently locked shards back the list.
func (b *BanList) ShardCount() int { return len(b.shards) }

func (b *BanList) shard(id PeerID) *banShard {
	return &b.shards[shardFor(id, b.mask)]
}

// Ban adds the identifier for the given duration.
func (b *BanList) Ban(id PeerID, d time.Duration) {
	until := b.now().Add(d)
	s := b.shard(id)
	s.mu.Lock()
	s.banned[id] = until
	s.mu.Unlock()
}

// IsBanned reports whether the identifier is currently banned, pruning it
// if the ban has expired. The common cases — not banned, or banned and
// unexpired — touch only the shard's read lock; the write lock is taken
// only to prune an expired entry.
func (b *BanList) IsBanned(id PeerID) bool {
	s := b.shard(id)
	s.mu.RLock()
	until, ok := s.banned[id]
	s.mu.RUnlock()
	switch {
	case !ok:
		return false
	case !b.now().After(until):
		return true
	}
	// Expired: escalate to the write lock to prune, re-checking under it —
	// a concurrent re-ban may have refreshed the expiry between the locks.
	s.mu.Lock()
	cur, ok := s.banned[id]
	expired := ok && b.now().After(cur)
	if expired {
		delete(s.banned, id)
	}
	s.mu.Unlock()
	return ok && !expired
}

// Unban removes the identifier.
func (b *BanList) Unban(id PeerID) {
	s := b.shard(id)
	s.mu.Lock()
	delete(s.banned, id)
	s.mu.Unlock()
}

// Count returns the number of identifiers currently banned, pruning
// expired entries shard by shard.
func (b *BanList) Count() int {
	n := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		now := b.now()
		for id, until := range s.banned {
			if now.After(until) {
				delete(s.banned, id)
				continue
			}
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// BannedPortCountForIP returns how many distinct ports of the given IP are
// banned — the metric of the paper's full-IP preemptive Defamation, which
// needs all 16384 ephemeral ports of an address banned to fully block it.
func (b *BanList) BannedPortCountForIP(ip net.IP) int {
	n := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		now := b.now()
		for id, until := range s.banned {
			if now.After(until) {
				delete(s.banned, id)
				continue
			}
			if bIP := id.IP(); bIP != nil && bIP.Equal(ip) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}
