package banstore

import (
	"sync"

	"banscore/internal/wal"
)

// Recovered is what Open salvaged from the store directory. The caller
// feeds it into Restore; replay tolerates arbitrary overlap between the
// snapshot and the retained records.
type Recovered struct {
	// Snapshot is the newest valid snapshot (nil when none survived).
	Snapshot *State

	// SnapshotLSN is the LSN the snapshot covers through.
	SnapshotLSN uint64

	// Records is every retained WAL record, in log order, as its raw
	// payload: a view into the segment image Open read, which
	// decodeRecord accepted there and Restore decodes as it applies it.
	// Replay is idempotent, so records the snapshot already covers are
	// included.
	Records [][]byte

	// LastLSN is the highest LSN recovered (snapshot or record).
	LastLSN uint64

	// Truncations counts corruption events handled: torn/corrupt records
	// truncated away, unreachable segments deleted, corrupt snapshot
	// generations skipped.
	Truncations uint64
}

// Open recovers the store in dir (wal.Recover: newest valid snapshot, then
// the log up to its first bad frame) and returns it ready for appends on a
// fresh segment at the recovered frontier, plus everything it salvaged.
// Corruption never fails Open — it truncates, counts, and keeps going; only
// I/O errors (unreadable dir, create failure) are returned.
func Open(opts Options) (*Store, *Recovered, error) {
	opts.fillDefaults()
	rec := &Recovered{}
	res, err := wal.Recover(opts.Dir, walMagic, snapMagic,
		func(payload []byte) error {
			st, err := DecodeState(payload)
			if err != nil {
				return err
			}
			rec.Snapshot = &st
			return nil
		},
		func(payload []byte) error {
			if _, err := decodeRecord(payload); err != nil {
				return err
			}
			// wal.Recover reads each segment whole and never reuses the
			// buffer, so the view outlives the callback. The clipped cap
			// keeps an append through it off the next frame.
			rec.Records = append(rec.Records, payload[:len(payload):len(payload)])
			return nil
		})
	if err != nil {
		return nil, nil, err
	}
	rec.SnapshotLSN, rec.LastLSN, rec.Truncations = res.SnapshotLSN, res.LastLSN, res.Truncations

	s := &Store{
		opts:     opts,
		clock:    opts.Clock,
		done:     make(chan struct{}),
		nextLSN:  rec.LastLSN + 1,
		written:  rec.LastLSN,
		segStart: rec.LastLSN + 1,
	}
	s.cond = sync.NewCond(&s.mu)
	s.truncations.Store(rec.Truncations)
	s.snapLSN.Store(rec.SnapshotLSN)
	if s.f, err = wal.CreateSegment(opts.Dir, walMagic, s.nextLSN, s.fsync()); err != nil {
		return nil, nil, err
	}
	spawn(s.writerLoop)
	return s, rec, nil
}
