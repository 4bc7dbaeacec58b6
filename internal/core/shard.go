package core

import "runtime"

// Shard-count bounds for every sharded per-identifier map: the Tracker,
// the BanList and the reputation engine's peer and netgroup maps. The floor
// keeps the shard machinery exercised (and the race surface real) even on
// a single-core runner; the ceiling bounds per-instance map overhead when
// GOMAXPROCS is huge.
const (
	minShards = 8
	maxShards = 256
)

// PickShardCount returns the power-of-two shard count of a sharded
// per-identifier map: requested, or 4x GOMAXPROCS when requested is not
// positive, clamped to [minShards, maxShards] and rounded up to the next
// power of two. The 4x headroom keeps two peers' probability of colliding
// on a shard low even when every core is saturated with a distinct
// flooding peer, which is exactly the BM-DoS load shape.
func PickShardCount(requested int) int {
	n := requested
	if n <= 0 {
		n = runtime.GOMAXPROCS(0) * 4
	}
	if n < minShards {
		n = minShards
	}
	if n > maxShards {
		n = maxShards
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// shardFor hashes the identifier (FNV-1a, 32-bit) and masks it onto a
// power-of-two shard array. Identifiers are [IP:Port] strings, so FNV's
// byte-at-a-time mixing spreads both the address and the ephemeral-port
// tail — the part that actually varies during a Defamation port sweep.
func shardFor(id PeerID, mask uint32) uint32 {
	return ShardHash(id) & mask
}

// ShardHash exposes the raw FNV-1a hash of a peer identifier. The
// reputation engine shards its peer and netgroup maps on it, and the swarm
// engine its connection shards, so a peer's connection shard and its score
// shard derive from the same bytes, keeping one peer's whole lifecycle on
// predictable lanes.
func ShardHash(id PeerID) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h
}
