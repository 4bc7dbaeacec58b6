package ring_test

import (
	"testing"

	"banscore/internal/core"
	"banscore/internal/ring"
)

// TestStorageFollowsThePushes holds the ring to append's growth and nothing
// more: a forensics ledger builds a 256-record ring for every one of up to
// 4,096 peers, so a ring that reserved its limit up front would cost the
// ledger's whole worst case, ~68 MB, before the first ban. Once full, a push writes one slot and allocates
// nothing.
func TestStorageFollowsThePushes(t *testing.T) {
	r := ring.New[core.BanRecord](core.DefaultLedgerPerPeer)
	if r.Cap() != 0 {
		t.Fatalf("an empty ring reserved %d slots", r.Cap())
	}
	for i := 0; i < 100; i++ {
		r.Push(core.BanRecord{Seq: uint64(i)})
	}
	if r.Cap() >= core.DefaultLedgerPerPeer {
		t.Fatalf("100 pushes left %d slots reserved; the limit must not be allocated ahead of need", r.Cap())
	}

	for r.Len() < r.Limit() {
		r.Push(core.BanRecord{})
	}
	if allocs := testing.AllocsPerRun(1000, func() { r.Push(core.BanRecord{}) }); allocs != 0 {
		t.Fatalf("a push into a full ring allocates %v times", allocs)
	}
}
