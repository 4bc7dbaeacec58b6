package observer

import (
	"os"
	"sync"

	"banscore/internal/wal"
)

// Store is the fleet's crash-safe ban-intelligence store: typed tables
// (events with by-peer/by-node indexes, per-node journal cursors) layered
// over internal/wal's segment + snapshot log and corruption semantics. All
// appends are synchronous under one mutex into a pending buffer that is
// written to the active segment at flush points; fsync policy is the
// caller's choice. The crash-safety contract is ordering, not
// durability of every byte: a cursor record is always appended after the
// events it acknowledges, and flushes write the pending buffer in append
// order, so the on-disk log is always a prefix of the append sequence — any
// cursor that survives a crash implies its events survived too.
type Store struct {
	opts Options

	mu      sync.Mutex
	f       *os.File
	pending []byte // framed records not yet written to f
	nextLSN uint64 // LSN the next appended record will carry

	// Tables.
	events  []Event
	byKey   map[Key]struct{}
	byPeer  map[string][]int // peer -> event indexes, append order
	byNode  map[string][]int // node -> event indexes, append order
	cursors map[string]Cursor
	lastSeq map[streamKey]uint64 // highest Seq seen per (node, stream)

	snapLSN     uint64 // LSN covered by the newest snapshot
	truncations uint64 // corruption events handled at recovery
	sinceSnap   int    // records appended since the last snapshot
	closed      bool
}

// streamKey identifies one (node, stream) sequence space.
type streamKey struct {
	node   string
	stream string
}

// Options parameterizes OpenStore.
type Options struct {
	// Dir is the store directory; created if absent.
	Dir string

	// Fsync, when true, fsyncs on Sync/AckCursor flushes and snapshot
	// writes. Off by default: the chaos suite exercises the ordering
	// invariant, not disk-barrier latency.
	Fsync bool

	// FlushBytes is the pending-buffer threshold that triggers a write to
	// the active segment (no fsync). Default 256 KiB.
	FlushBytes int

	// SnapshotKeep is how many snapshot generations to retain. Default 2.
	SnapshotKeep int

	// SnapshotEvery auto-snapshots after this many appended records.
	// Default 8192; 0 disables auto-snapshotting.
	SnapshotEvery int
}

func (o *Options) fillDefaults() {
	if o.FlushBytes <= 0 {
		o.FlushBytes = 256 << 10
	}
	if o.SnapshotKeep <= 0 {
		o.SnapshotKeep = 2
	}
	if o.SnapshotEvery == 0 {
		o.SnapshotEvery = 8192
	}
}

// Status is a point-in-time view of the store for health surfaces and tests.
type Status struct {
	LSN          uint64 `json:"lsn"`
	Events       int    `json:"events"`
	Nodes        int    `json:"nodes"`
	PendingBytes int    `json:"pending_bytes"`
	Truncations  uint64 `json:"truncations"`
	SnapshotLSN  uint64 `json:"snapshot_lsn"`
}

// OpenStore recovers (or creates) the store in opts.Dir (wal.Recover).
// Corruption never fails recovery: the log is truncated at the first bad
// frame, corrupt snapshot generations are skipped, and the count of such
// events is available via Status. Only real I/O errors are returned.
// Replay is idempotent through the dedup table, so snapshot/WAL overlap is
// safe.
func OpenStore(opts Options) (*Store, error) {
	opts.fillDefaults()
	s := &Store{
		opts:    opts,
		byKey:   make(map[Key]struct{}),
		byPeer:  make(map[string][]int),
		byNode:  make(map[string][]int),
		cursors: make(map[string]Cursor),
		lastSeq: make(map[streamKey]uint64),
	}
	res, err := wal.Recover(opts.Dir, walMagic, snapMagic,
		func(payload []byte) error {
			events, cursors, err := decodeSnapshotPayload(payload)
			if err != nil {
				return err
			}
			for i := range events {
				s.applyEvent(&events[i])
			}
			for node, cur := range cursors {
				s.applyCursor(node, cur)
			}
			return nil
		},
		func(payload []byte) error {
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			switch rec.kind {
			case recEvent:
				s.applyEvent(&rec.event)
			case recCursor:
				s.applyCursor(rec.node, rec.cursor)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	s.snapLSN, s.truncations = res.SnapshotLSN, res.Truncations
	s.nextLSN = res.LastLSN + 1
	if s.f, err = wal.CreateSegment(opts.Dir, walMagic, s.nextLSN, opts.Fsync); err != nil {
		return nil, err
	}
	return s, nil
}

// applyEvent inserts one event into the tables if its key is new. Used by
// both live ingest and recovery replay (idempotent).
func (s *Store) applyEvent(ev *Event) bool {
	k := ev.Key()
	if _, dup := s.byKey[k]; dup {
		return false
	}
	idx := len(s.events)
	s.events = append(s.events, *ev)
	s.byKey[k] = struct{}{}
	s.byNode[ev.Node] = append(s.byNode[ev.Node], idx)
	if ev.Peer != "" {
		s.byPeer[ev.Peer] = append(s.byPeer[ev.Peer], idx)
	}
	sk := streamKey{node: ev.Node, stream: ev.Stream}
	if ev.Seq > s.lastSeq[sk] {
		s.lastSeq[sk] = ev.Seq
	}
	return true
}

// applyCursor merges one cursor record. Within a generation (same Base)
// cursors only move forward; a larger Base is a new node generation and
// replaces the position wholesale (its Next restarts at 0 legitimately).
// Dropped is cumulative across generations and never decreases.
func (s *Store) applyCursor(node string, cur Cursor) bool {
	old, ok := s.cursors[node]
	if ok {
		if cur.Base < old.Base {
			return false
		}
		if cur.Dropped < old.Dropped {
			cur.Dropped = old.Dropped
		}
		if cur.Base == old.Base {
			if cur.Next <= old.Next && cur.Dropped <= old.Dropped {
				return false
			}
			if cur.Next < old.Next {
				cur.Next = old.Next
			}
		}
	}
	s.cursors[node] = cur
	return true
}

// Ingest records one event. A zero Seq means the event belongs to an
// observer-synthesized stream and is assigned the next sequence in its
// (node, stream) space. Returns false (and appends nothing) when the event
// is a duplicate of one already stored.
//
//banlint:hotpath per-event fleet ingest: amortized appends into live tables, no per-call allocation
func (s *Store) Ingest(ev Event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if ev.Seq == 0 {
		ev.Seq = s.lastSeq[streamKey{node: ev.Node, stream: ev.Stream}] + 1
	}
	if !s.applyEvent(&ev) {
		return false
	}
	s.appendRecordLocked(appendEventPayload(nil, &ev))
	return true
}

// AckCursor records that node's journal has been consumed through cur. The
// record is appended after any events Ingested before this call, then the
// pending buffer is flushed, making the acknowledgment as durable as the
// events it covers. Regressing cursors are ignored (restart handling is the
// poller's job).
func (s *Store) AckCursor(node string, cur Cursor) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.applyCursor(node, cur) {
		return nil
	}
	s.appendRecordLocked(appendCursorPayload(nil, node, s.cursors[node]))
	return s.flushLocked(s.opts.Fsync)
}

// Cursor returns node's recovered/acknowledged journal cursor.
func (s *Store) Cursor(node string) (Cursor, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.cursors[node]
	return cur, ok
}

// LastSeq returns the highest sequence stored for (node, stream), 0 when
// none. The poller uses the journal stream's value to pick a restart
// generation base past everything already stored.
func (s *Store) LastSeq(node, stream string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq[streamKey{node: node, stream: stream}]
}

// HasEvent reports whether an event with key k is already stored.
func (s *Store) HasEvent(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byKey[k]
	return ok
}

// LatestByStream returns, for each Peer value seen on (node, stream), the
// highest-Seq event — the current state of an observer-synthesized
// transition stream. Pollers seed their in-memory transition trackers from
// it after a restart so an unchanged status is not re-emitted.
func (s *Store) LatestByStream(node, stream string) map[string]Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]Event)
	for _, idx := range s.byNode[node] {
		ev := s.events[idx]
		if ev.Stream != stream {
			continue
		}
		if prev, ok := out[ev.Peer]; !ok || ev.Seq > prev.Seq {
			out[ev.Peer] = ev
		}
	}
	return out
}

// appendRecordLocked frames payload into the pending buffer, assigns it the
// next LSN, and flushes opportunistically past the threshold.
func (s *Store) appendRecordLocked(payload []byte) {
	s.pending = wal.AppendFrame(s.pending, payload)
	s.nextLSN++
	s.sinceSnap++
	if len(s.pending) >= s.opts.FlushBytes {
		_ = s.flushLocked(false)
	}
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		_ = s.snapshotLocked()
	}
}

// flushLocked writes the pending buffer to the active segment, optionally
// fsyncing. The buffer is written whole and in order: the file is always a
// prefix of the append sequence.
func (s *Store) flushLocked(fsync bool) error {
	if len(s.pending) > 0 && s.f != nil {
		if _, err := s.f.Write(s.pending); err != nil {
			return err
		}
		s.pending = s.pending[:0]
	}
	if fsync && s.f != nil {
		return s.f.Sync()
	}
	return nil
}

// Sync flushes the pending buffer and fsyncs the active segment.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.flushLocked(true)
}

// Snapshot writes the full table state to a new snapshot file, rotates the
// active segment, and prunes segments and snapshot generations the newest
// SnapshotKeep snapshots no longer need.
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.snapshotLocked()
}

func (s *Store) snapshotLocked() error {
	if err := s.flushLocked(s.opts.Fsync); err != nil {
		return err
	}
	lsn := s.nextLSN - 1
	if err := wal.WriteSnapshot(s.opts.Dir, snapMagic, lsn, encodeSnapshotPayload(s.events, s.cursors), s.opts.Fsync); err != nil {
		return err
	}
	s.snapLSN = lsn
	s.sinceSnap = 0
	f, err := wal.RotateSegment(s.f, s.opts.Dir, walMagic, s.nextLSN, s.opts.Fsync)
	s.f = f
	if err != nil {
		return err
	}
	wal.Prune(s.opts.Dir, s.opts.SnapshotKeep, s.opts.Fsync)
	return nil
}

// Status reports the store's current shape.
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		LSN:          s.nextLSN - 1,
		Events:       len(s.events),
		Nodes:        len(s.byNode),
		PendingBytes: len(s.pending),
		Truncations:  s.truncations,
		SnapshotLSN:  s.snapLSN,
	}
}

// Close flushes the pending buffer (fsyncing per policy) and closes the
// active segment.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.flushLocked(s.opts.Fsync)
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f = nil
	}
	return err
}

// Crash simulates an abrupt kill for the chaos suite: the pending buffer is
// dropped on the floor and the segment is closed without flushing or
// syncing. Everything already written to the OS survives; everything still
// buffered does not — exactly the loss profile whose safety the ordering
// invariant guarantees.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.pending = nil
	if s.f != nil {
		_ = s.f.Close()
		s.f = nil
	}
}
