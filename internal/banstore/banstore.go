// Package banstore is the crash-safe persistence layer under the node's ban
// intelligence: an append-only, CRC-framed write-ahead log of every scoring
// event (misbehavior hits, identifier bans, good-score credits, reputation
// penalties/credits, netgroup bans) plus periodic compacted snapshots of the
// full Tracker/BanList/Ledger/reputation state. A node that crashes and
// restarts replays the latest valid snapshot and the WAL tail and comes back
// knowing everything it knew — the paper's misbehavior tracking stops being
// amnesiac, so a Sybil or Defamation attacker can no longer wait out a
// restart for a free score reset.
//
// Durability model. Appends are group-committed: the hot path (invoked under
// the tracker's shard lock and the reputation engine's group mutex) only
// encodes the record into an in-memory buffer; a background writer batches
// buffers to the current segment file and fsyncs per the configured policy.
// A crash therefore loses at most one group-commit window of recent deltas —
// never a record the writer has fsynced, and never a whole state. When the
// disk cannot keep up, the store sheds persistence rather than traffic:
// appends beyond the backlog cap are dropped (counted), and Healthy() turns
// false so node health can surface degraded durability while the node keeps
// serving.
//
// The package is in the banlint wallclock analyzer's scope: all timing runs
// off an injected vclock.Clock, and all goroutines are started through the
// gospawn-sanctioned spawn helper.
package banstore

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"banscore/internal/core"
	"banscore/internal/reputation"
	"banscore/internal/vclock"
	"banscore/internal/wal"
)

// FsyncPolicy selects when the background writer fsyncs the WAL.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncBatch (default) fsyncs at most once per FsyncInterval: the
	// group-commit window. Crash loss is bounded by one window.
	FsyncBatch FsyncPolicy = iota

	// FsyncAlways fsyncs after every batch write — the smallest window the
	// group-commit design can offer without putting fsync latency on the
	// scoring hot path.
	FsyncAlways

	// FsyncNone never fsyncs; the OS flushes on its own schedule. For
	// benchmarks and tests.
	FsyncNone
)

// String returns the policy name.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	}
	return "unknown"
}

// ParseFsyncPolicy parses a -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch", "":
		return FsyncBatch, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("banstore: unknown fsync policy %q (want always|batch|none)", s)
}

// Defaults.
const (
	// DefaultFsyncInterval is the group-commit window under FsyncBatch.
	DefaultFsyncInterval = 100 * time.Millisecond

	// DefaultMaxBacklogBytes is the pending-buffer cap beyond which appends
	// are shed (dropped and counted) instead of blocking the scoring path.
	DefaultMaxBacklogBytes = 1 << 20

	// DefaultFsyncBudget is the fsync latency above which the store
	// reports itself degraded.
	DefaultFsyncBudget = 250 * time.Millisecond

	// DefaultSnapshotKeep is how many snapshot generations are retained.
	DefaultSnapshotKeep = 2
)

// File-format magics; the layout they head is internal/wal's.
var (
	walMagic  = []byte("BSWAL001")
	snapMagic = []byte("BSSNAP01")
)

// Options parameterizes Open.
type Options struct {
	// Dir is the store directory (created if missing).
	Dir string

	// Fsync policy. Default FsyncBatch.
	Fsync FsyncPolicy

	// FsyncInterval is the FsyncBatch group-commit window. Zero selects
	// DefaultFsyncInterval.
	FsyncInterval time.Duration

	// Clock injects time (fsync pacing, latency measurement, ban-expiry
	// stamps in Status). Nil selects the system vclock.
	Clock vclock.Clock

	// MaxBacklogBytes caps the pending buffer; appends beyond it are shed.
	// Zero selects DefaultMaxBacklogBytes.
	MaxBacklogBytes int

	// BacklogBudget is the pending-bytes level above which the store is
	// degraded (well before the shed cap). Zero selects half of
	// MaxBacklogBytes.
	BacklogBudget int

	// FsyncBudget is the fsync latency above which the store is degraded.
	// Zero selects DefaultFsyncBudget.
	FsyncBudget time.Duration

	// SnapshotKeep is how many snapshot generations to retain. Zero
	// selects DefaultSnapshotKeep.
	SnapshotKeep int
}

func (o *Options) fillDefaults() {
	if o.Clock == nil {
		o.Clock = vclock.System()
	}
	if o.FsyncInterval == 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.MaxBacklogBytes == 0 {
		o.MaxBacklogBytes = DefaultMaxBacklogBytes
	}
	if o.BacklogBudget == 0 {
		o.BacklogBudget = o.MaxBacklogBytes / 2
	}
	if o.FsyncBudget == 0 {
		o.FsyncBudget = DefaultFsyncBudget
	}
	if o.SnapshotKeep == 0 {
		o.SnapshotKeep = DefaultSnapshotKeep
	}
}

// Store is the open ban-state store: one active WAL segment plus the
// snapshot/segment history in Dir. Safe for concurrent use; the append
// methods are designed to be called under the score-owning locks (that is
// what orders the log) and cost a mutex and a buffer copy.
type Store struct {
	opts  Options
	clock vclock.Clock

	mu       sync.Mutex
	cond     *sync.Cond // signals writer (pending work) and waiters (progress)
	pending  []byte     // framed records not yet handed to the writer
	nextLSN  uint64     // LSN the next appended record will get (first is 1)
	written  uint64     // last LSN handed to the OS
	inflight bool       // writer is between batch swap and write completion
	closed   bool
	crashed  bool
	err      error // first writer error (sticky)

	f        *os.File // active segment
	segStart uint64   // first LSN of the active segment

	lastFsyncAt  time.Time
	lastFsyncDur time.Duration

	done chan struct{} // writer exited

	// Lifetime counters (atomics: read lock-free by Status/telemetry).
	appends     atomic.Uint64
	walBytes    atomic.Uint64
	dropped     atomic.Uint64
	fsyncs      atomic.Uint64
	snapshots   atomic.Uint64
	snapLSN     atomic.Uint64
	truncations atomic.Uint64 // recovery truncation events (this open)

	// onFsync, when set by Instrument, feeds the fsync latency histogram.
	onFsync atomic.Pointer[func(time.Duration)]
}

// spawn starts fn on its own goroutine. It exists so the gospawn analyzer
// can pin every goroutine launch in this package to one audited site.
func spawn(fn func()) { go fn() }

// LSN returns the last assigned log sequence number (0 before any append).
// Callers snapshotting live state read it BEFORE capturing: replay applies
// every retained record idempotently, so an LSN that undershoots the
// capture is safe while one that overshoots would drop records.
func (s *Store) LSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextLSN - 1
}

// admit reports whether an append may proceed; callers hold s.mu.
func (s *Store) admit() bool {
	if s.closed || s.crashed || s.f == nil {
		return false
	}
	if len(s.pending) >= s.opts.MaxBacklogBytes {
		s.dropped.Add(1)
		return false
	}
	return true
}

// frameStart reserves a frame header in pending and returns its offset;
// callers hold s.mu and must seal() after encoding the payload.
func (s *Store) frameStart() int {
	start := len(s.pending)
	s.pending = append(s.pending, make([]byte, wal.FrameOverhead)...)
	return start
}

// seal completes the frame begun at start: length, CRC, LSN, counters.
func (s *Store) seal(start int) {
	size := wal.SealFrame(s.pending, start)
	s.nextLSN++
	s.appends.Add(1)
	s.walBytes.Add(uint64(size))
	s.cond.Signal()
}

// writerLoop is the group-commit writer: it swaps the pending buffer out
// under the mutex, writes the batch with no lock held, fsyncs per policy,
// and publishes progress. Exits when the store is closed and drained.
func (s *Store) writerLoop() {
	var buf []byte
	for {
		s.mu.Lock()
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			close(s.done)
			return
		}
		buf, s.pending = s.pending, buf[:0]
		end := s.nextLSN - 1
		f := s.f
		doFsync := false
		var now time.Time
		if f != nil && s.opts.Fsync != FsyncNone {
			now = s.clock.Now()
			doFsync = s.opts.Fsync == FsyncAlways ||
				s.lastFsyncAt.IsZero() || now.Sub(s.lastFsyncAt) >= s.opts.FsyncInterval
		}
		s.inflight = true
		s.mu.Unlock()

		var werr error
		var fsyncDur time.Duration
		if f != nil {
			_, werr = f.Write(buf)
			if werr == nil && doFsync {
				start := s.clock.Now()
				werr = f.Sync()
				fsyncDur = s.clock.Since(start)
			}
		}

		s.mu.Lock()
		s.inflight = false
		s.written = end
		if werr != nil && s.err == nil {
			s.err = werr
		}
		if doFsync && werr == nil {
			s.fsyncs.Add(1)
			s.lastFsyncAt = now
			s.lastFsyncDur = fsyncDur
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if doFsync && werr == nil {
			if fn := s.onFsync.Load(); fn != nil {
				(*fn)(fsyncDur)
			}
		}
	}
}

// Sync blocks until every record appended before the call is written and
// fsynced — the durability barrier tests and snapshots use.
func (s *Store) Sync() error {
	s.mu.Lock()
	target := s.nextLSN - 1
	for (s.written < target || s.inflight) && !s.crashed && s.err == nil {
		s.cond.Wait()
	}
	f := s.f
	err := s.err
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if f != nil && s.opts.Fsync != FsyncNone {
		start := s.clock.Now()
		if err := f.Sync(); err != nil {
			return err
		}
		dur := s.clock.Since(start)
		s.mu.Lock()
		s.fsyncs.Add(1)
		s.lastFsyncAt = s.clock.Now()
		s.lastFsyncDur = dur
		s.mu.Unlock()
		if fn := s.onFsync.Load(); fn != nil {
			(*fn)(dur)
		}
	}
	return nil
}

// Close flushes, fsyncs, and closes the store. Safe to call twice.
func (s *Store) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.done // writer drained whatever was pending
	s.mu.Lock()
	f := s.f
	s.f = nil
	err := s.err
	crashed := s.crashed
	s.mu.Unlock()
	if alreadyClosed || crashed || f == nil {
		return err
	}
	if s.opts.Fsync != FsyncNone {
		if serr := f.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Crash simulates a SIGKILL for tests and chaos: the pending group-commit
// window is dropped on the floor and the segment file is closed without a
// flush. Everything the writer had already handed to the OS survives;
// recovery must cope with whatever tail the "kill" left behind.
func (s *Store) Crash() {
	s.mu.Lock()
	s.crashed = true
	s.closed = true
	s.pending = nil
	f := s.f
	s.f = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	if f != nil {
		_ = f.Close()
	}
	<-s.done
}

// Healthy reports whether durability is keeping up: false when the pending
// backlog exceeds its budget or the last fsync blew the latency budget. The
// node surfaces this as a degraded-health reason — persistence is shed
// before traffic.
func (s *Store) Healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return false
	}
	if len(s.pending) > s.opts.BacklogBudget {
		return false
	}
	return s.lastFsyncDur <= s.opts.FsyncBudget
}

// Status is the store's observable state (/debug/banstore).
type Status struct {
	Dir         string `json:"dir"`
	FsyncPolicy string `json:"fsync_policy"`

	LSN          uint64 `json:"lsn"`
	WrittenLSN   uint64 `json:"written_lsn"`
	SnapshotLSN  uint64 `json:"snapshot_lsn"`
	SegmentStart uint64 `json:"segment_start_lsn"`

	PendingBytes int    `json:"pending_bytes"`
	Appends      uint64 `json:"wal_appends_total"`
	WalBytes     uint64 `json:"wal_bytes_total"`
	Dropped      uint64 `json:"wal_dropped_total"`
	Fsyncs       uint64 `json:"fsyncs_total"`
	Snapshots    uint64 `json:"snapshots_total"`
	Truncations  uint64 `json:"recovery_truncated_total"`

	LastFsyncSeconds float64 `json:"last_fsync_seconds"`
	Healthy          bool    `json:"healthy"`
	Closed           bool    `json:"closed"`
	Err              string  `json:"error,omitempty"`
}

// Status returns a consistent snapshot of the store's counters and health.
func (s *Store) Status() Status {
	healthy := s.Healthy()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		Dir:              s.opts.Dir,
		FsyncPolicy:      s.opts.Fsync.String(),
		LSN:              s.nextLSN - 1,
		WrittenLSN:       s.written,
		SnapshotLSN:      s.snapLSN.Load(),
		SegmentStart:     s.segStart,
		PendingBytes:     len(s.pending),
		Appends:          s.appends.Load(),
		WalBytes:         s.walBytes.Load(),
		Dropped:          s.dropped.Load(),
		Fsyncs:           s.fsyncs.Load(),
		Snapshots:        s.snapshots.Load(),
		Truncations:      s.truncations.Load(),
		LastFsyncSeconds: s.lastFsyncDur.Seconds(),
		Healthy:          healthy,
		Closed:           s.closed,
	}
	if s.err != nil {
		st.Err = s.err.Error()
	}
	return st
}

// --- append methods ------------------------------------------------------

// AppendMisbehavior logs one tracker scoring hit. It is the tracker's
// Config.OnRecord hook: invoked under the peer's shard lock, so the log
// observes score totals in computation order.
func (s *Store) AppendMisbehavior(rec core.BanRecord) {
	s.mu.Lock()
	if !s.admit() {
		s.mu.Unlock()
		return
	}
	start := s.frameStart()
	s.pending = append(s.pending, recMisbehave)
	s.pending = appendBanRecord(s.pending, &rec)
	s.seal(start)
	s.mu.Unlock()
}

// AppendBan logs an identifier ban with its absolute expiry.
func (s *Store) AppendBan(peer core.PeerID, until time.Time) {
	s.mu.Lock()
	if !s.admit() {
		s.mu.Unlock()
		return
	}
	start := s.frameStart()
	s.pending = append(s.pending, recBan)
	s.pending = wal.AppendString(s.pending, string(peer))
	s.pending = wal.AppendTime(s.pending, until)
	s.seal(start)
	s.mu.Unlock()
}

// AppendForget logs a clean disconnect (live score state dropped).
func (s *Store) AppendForget(peer core.PeerID) {
	s.mu.Lock()
	if !s.admit() {
		s.mu.Unlock()
		return
	}
	start := s.frameStart()
	s.pending = append(s.pending, recForget)
	s.pending = wal.AppendString(s.pending, string(peer))
	s.seal(start)
	s.mu.Unlock()
}

// AppendGood logs a good-score credit with the post-state total.
func (s *Store) AppendGood(peer core.PeerID, total int) {
	s.mu.Lock()
	if !s.admit() {
		s.mu.Unlock()
		return
	}
	start := s.frameStart()
	s.pending = append(s.pending, recGood)
	s.pending = wal.AppendString(s.pending, string(peer))
	s.pending = wal.AppendVarint(s.pending, int64(total))
	s.seal(start)
	s.mu.Unlock()
}

// RecordPenalty implements reputation.Recorder: one Penalize post-state.
func (s *Store) RecordPenalty(rec reputation.PenaltyRecord) {
	s.mu.Lock()
	if !s.admit() {
		s.mu.Unlock()
		return
	}
	start := s.frameStart()
	s.pending = append(s.pending, recPenalty)
	s.pending = appendPenaltyRecord(s.pending, &rec)
	s.seal(start)
	s.mu.Unlock()
}

// RecordCredit implements reputation.Recorder: one Credit post-state.
func (s *Store) RecordCredit(rec reputation.CreditRecord) {
	s.mu.Lock()
	if !s.admit() {
		s.mu.Unlock()
		return
	}
	start := s.frameStart()
	s.pending = append(s.pending, recCredit)
	s.pending = appendCreditRecord(s.pending, &rec)
	s.seal(start)
	s.mu.Unlock()
}

// --- snapshots and segment management ------------------------------------

// fsync reports whether files and the directory are flushed at lifecycle
// points (everything but FsyncNone).
func (s *Store) fsync() bool { return s.opts.Fsync != FsyncNone }

// Snapshot durably writes st (captured by the caller at an LSN read before
// the capture), rotates the WAL onto a fresh segment, and prunes segments
// and older snapshots the retained generations fully cover.
func (s *Store) Snapshot(st State, lsn uint64) error {
	if err := s.Sync(); err != nil {
		return err
	}
	if err := wal.WriteSnapshot(s.opts.Dir, snapMagic, lsn, EncodeState(st), s.fsync()); err != nil {
		return err
	}
	if err := s.rotateSegment(); err != nil {
		return err
	}
	wal.Prune(s.opts.Dir, s.opts.SnapshotKeep, s.fsync())
	s.snapshots.Add(1)
	if lsn > s.snapLSN.Load() {
		s.snapLSN.Store(lsn)
	}
	return nil
}

// rotateSegment closes the active segment and starts a fresh one at the
// current LSN frontier. Callers must have drained the writer (Sync); the
// rotation itself waits out any in-flight batch under the store mutex so a
// record never lands in a segment that does not own its LSN.
func (s *Store) rotateSegment() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.inflight || len(s.pending) > 0 {
		s.cond.Wait()
	}
	if s.closed || s.crashed || s.f == nil {
		return s.err
	}
	f, err := wal.RotateSegment(s.f, s.opts.Dir, walMagic, s.nextLSN, s.fsync())
	s.f = f
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return err
	}
	s.segStart = s.nextLSN
	return nil
}
