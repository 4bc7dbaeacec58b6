package node

import (
	"time"

	"banscore/internal/banstore"
)

// DefaultSnapshotEvery is the ban-state snapshot interval when a BanStore
// is configured without an explicit SnapshotEvery. One minute keeps the
// WAL tail — and therefore restart replay time — short without putting
// snapshot encoding on any hot path.
const DefaultSnapshotEvery = time.Minute

// snapshotLoop writes a compacted ban-state snapshot every interval until
// the node stops. Runs supervised under the node's WaitGroup.
func (n *Node) snapshotLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
			_ = n.WriteSnapshot()
		}
	}
}

// WriteSnapshot captures the tracker, forensics-ledger, and reputation
// state and hands it to the ban store as a snapshot. The covering LSN is
// read before the state is captured: records racing the capture may land
// in both the snapshot and the retained WAL tail, which replay tolerates
// (restore is idempotent), while the reverse — a record in neither —
// cannot happen. Exported so shutdown paths and tests can force one
// between scheduler ticks.
func (n *Node) WriteSnapshot() error {
	s := n.cfg.BanStore
	if s == nil {
		return nil
	}
	lsn := s.LSN()
	st := banstore.CaptureState(n.tracker, n.cfg.TrackerConfig.Forensics, n.cfg.Reputation)
	return s.Snapshot(st, lsn)
}
