// Package swarm implements the event-loop dispatcher that lets a single
// process sustain 100k+ concurrent simulated peers: instead of the
// goroutine pair (readLoop/writeLoop) per connection, connections are
// sharded by the tracker's FNV-1a peer-ID hash onto a fixed worker pool.
// Each shard owns a run queue of ready connections and an arena of
// slab-allocated, index-addressed per-peer slots reused across churn, so
// 100k peers cost neither 200k goroutines nor 100k scattered heap objects.
// Misbehavior raised while a shard's worker dispatches is staged into the
// shard's batch and flushed at the end of that connection's visit — one
// Tracker shard-lock acquisition per visit instead of one per hit, and never
// more than ReadBudget hits staged, however many connections are open —
// through the same scoring body as the inline path, preserving per-peer
// Seq/Score linearization (see core.Batch).
//
// The engine plugs into the node via peer.Runner (node
// Config.PeerRunner): real-TCP deployments keep goroutine loops; simnet
// swarms opt in. Readiness comes from the simnet fabric's edge-triggered
// callbacks (Conn.SetReadable/SetWritable, peer.SetQueueWake), and a
// worker only calls into the blocking decode path when a complete wire
// frame is already buffered, so workers never park on a socket.
//
// Lock ordering: a shard's mu is a leaf below both the node's mu and the
// simnet pipe locks. Workers never hold shard mu while dispatching
// (handlers take node mu) or flushing (the batch takes tracker shard
// locks), and the fabric invokes readiness callbacks only after releasing
// its pipe lock.
package swarm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"banscore/internal/core"
	"banscore/internal/peer"
	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// Batcher is the per-shard misbehavior staging buffer: the peer-facing
// sink plus the end-of-visit flush. node.MisbehaviorBatch implements it;
// the indirection keeps this package free of a node dependency.
type Batcher interface {
	peer.MisbehaviorSink
	Flush()
}

// DefaultReadBudget bounds how many messages one connection may dispatch
// per run-queue visit. The budget is the fairness knob: one peer with a
// deep buffered backlog (a flooder, by construction) cannot starve the
// rest of its shard; it is re-queued behind them instead.
const DefaultReadBudget = 64

// slotBlockShift sizes the arena's slabs: slots are allocated in blocks
// of 1<<slotBlockShift, so growing to 100k peers means appending block
// pointers, never copying live per-peer state.
const slotBlockShift = 10

// Config parameterizes an Engine.
type Config struct {
	// Shards is the worker-pool width, rounded up to a power of two.
	// Zero selects GOMAXPROCS rounded likewise. Each shard runs one
	// worker goroutine and owns the connections whose peer-ID hash maps
	// to it.
	Shards int

	// NewBatch builds a shard's misbehavior staging buffer. The engine
	// calls it when the shard registers its first connection, so it may
	// close over a node that is constructed after the engine. Nil disables
	// batching: misbehavior then applies inline, exactly as goroutine-loop
	// peers.
	NewBatch func() Batcher
}

// slot is one arena entry: the per-peer state of a registered connection.
// Slots are index-addressed and reused: gen increments on every detach so
// a wake captured against a retired occupant cannot schedule (or worse,
// dispatch) its successor.
type slot struct {
	p    *peer.Peer
	conn *simnet.Conn
	gen  uint32
	// queued dedups run-queue entries: set when the slot is enqueued,
	// cleared when a worker drains it into its working set.
	queued bool
}

// shard owns one lane of connections and the worker that pumps them.
type shard struct {
	e *Engine

	mu   sync.Mutex
	cond *sync.Cond
	runq []int32
	// blocks is the slab arena; free holds recycled slot indices.
	blocks  [][]slot
	free    []int32
	live    int
	stopped bool

	// batch is the shard's staging buffer, created under mu by the first
	// register and never replaced. Past that only the worker touches it
	// (stage during dispatch, flush at the end of the visit), so using it
	// needs no lock. staged counts the hits in it.
	batch  Batcher
	staged int

	// work is the worker's own account of its loop, plain counters it alone
	// writes; stats is the copy it publishes under mu once per pass.
	work, stats Stats
}

// Stats is the event loop's account of itself. The counters are sums over
// the shards; MaxStaged is the largest any one shard reported, since each
// shard stages into its own batch. A shard publishes its counters when it
// starts a pass over its run queue, so a reading trails the worker by at
// most the pass in progress.
//
// What it does not see: time a worker spends parked on its run queue's
// condition variable (an idle shard and a starved one read the same), time
// spent waiting for a tracker shard lock inside a flush, and anything below
// the frame gate — bytes buffered in the fabric that no visit has reached.
type Stats struct {
	// Visits is how many times a worker serviced a registered connection.
	Visits uint64 `json:"visits"`
	// Flushes counts visits that staged misbehavior and so ended in a batch
	// flush; HitsFlushed is the hits those flushes applied.
	Flushes     uint64 `json:"flushes"`
	HitsFlushed uint64 `json:"hits_flushed"`
	// MaxStaged is the high-water mark of hits staged at once in one
	// shard's batch: at most what one visit's ReadBudget frames staged.
	MaxStaged int `json:"max_staged"`
	// BudgetExhausted counts visits that dispatched a full ReadBudget of
	// frames and re-queued the connection behind its shard's other work.
	BudgetExhausted uint64 `json:"read_budget_exhausted"`
}

// Engine is the sharded event-loop dispatcher. It implements peer.Runner.
type Engine struct {
	cfg    Config
	mask   uint32
	shards []*shard

	admitted atomic.Uint64
	wg       sync.WaitGroup
	stopOnce sync.Once
}

var _ peer.Runner = (*Engine)(nil)

// NewEngine builds the engine and starts its worker pool.
func NewEngine(cfg Config) *Engine {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShardCount()
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	e := &Engine{cfg: cfg, mask: uint32(pow - 1), shards: make([]*shard, pow)}
	for i := range e.shards {
		sh := &shard{e: e}
		sh.cond = sync.NewCond(&sh.mu)
		e.shards[i] = sh
		e.spawn(sh.loop)
	}
	return e
}

// spawn runs fn on a goroutine registered with the engine's WaitGroup
// before it starts, so Stop collects it (banlint gospawn contract).
func (e *Engine) spawn(fn func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn()
	}()
}

// Run implements peer.Runner: peer.Start hands the connection over here.
// The transport must be a simnet.Conn — the event loop is built on the
// fabric's readiness callbacks; wiring the engine to a real TCP node is a
// configuration error, reported loudly.
func (e *Engine) Run(p *peer.Peer) {
	sc, ok := p.Conn().(*simnet.Conn)
	if !ok {
		panic(fmt.Sprintf("swarm: peer %s transport %T is not a simnet.Conn; use goroutine loops (nil PeerRunner) for real sockets", p.ID(), p.Conn()))
	}
	sh := e.shards[core.ShardHash(p.ID())&e.mask]
	sh.register(p, sc)
	e.admitted.Add(1)
}

// Admitted returns the cumulative count of connections handed to the
// engine — the numerator of the peers/sec admission benchmark.
func (e *Engine) Admitted() uint64 { return e.admitted.Load() }

// Live returns how many connections the engine is currently pumping.
func (e *Engine) Live() int {
	total := 0
	for _, sh := range e.shards {
		sh.mu.Lock()
		total += sh.live
		sh.mu.Unlock()
	}
	return total
}

// Shards returns the worker-pool width.
func (e *Engine) Shards() int { return len(e.shards) }

// Stats returns the engine's account of its event loop (see Stats for what
// the numbers leave out).
func (e *Engine) Stats() Stats {
	var total Stats
	for _, sh := range e.shards {
		sh.mu.Lock()
		st := sh.stats
		sh.mu.Unlock()
		total.Visits += st.Visits
		total.Flushes += st.Flushes
		total.HitsFlushed += st.HitsFlushed
		total.MaxStaged = max(total.MaxStaged, st.MaxStaged)
		total.BudgetExhausted += st.BudgetExhausted
	}
	return total
}

// Stop shuts the worker pool down. Connections are not closed — their
// owner (the node) tears them down; Stop only stops pumping them.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() {
		for _, sh := range e.shards {
			sh.mu.Lock()
			sh.stopped = true
			sh.cond.Broadcast()
			sh.mu.Unlock()
		}
		e.wg.Wait()
	})
}

// slotAt returns the arena entry for idx. Callers hold sh.mu.
func (sh *shard) slotAt(idx int32) *slot {
	return &sh.blocks[idx>>slotBlockShift][idx&(1<<slotBlockShift-1)]
}

// register installs a connection into the arena and arms its readiness
// callbacks. The initial enqueue covers anything that arrived before the
// callbacks existed.
func (sh *shard) register(p *peer.Peer, conn *simnet.Conn) {
	sh.mu.Lock()
	var idx int32
	if n := len(sh.free); n > 0 {
		idx = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		idx = int32(len(sh.blocks) << slotBlockShift)
		if len(sh.blocks) > 0 {
			last := len(sh.blocks) - 1
			if len(sh.blocks[last]) < cap(sh.blocks[last]) {
				idx = int32(last<<slotBlockShift + len(sh.blocks[last]))
			}
		}
		if int(idx)>>slotBlockShift >= len(sh.blocks) {
			sh.blocks = append(sh.blocks, make([]slot, 0, 1<<slotBlockShift))
		}
		b := idx >> slotBlockShift
		sh.blocks[b] = sh.blocks[b][:len(sh.blocks[b])+1]
	}
	s := sh.slotAt(idx)
	gen := s.gen // survives reuse; bumped at detach
	s.p, s.conn, s.queued = p, conn, false
	sh.live++
	sh.mu.Unlock()

	// Arm the wake paths outside sh.mu (callback setters take pipe
	// locks; shard mu stays a leaf). The shared closure is cheap: all
	// three signals mean "this connection may have work".
	wake := func() { sh.wake(idx, gen) }
	conn.SetReadable(wake)
	conn.SetWritable(wake)
	p.SetQueueWake(wake)
	if sh.e.cfg.NewBatch != nil {
		sh.mu.Lock()
		if sh.batch == nil {
			sh.batch = sh.e.cfg.NewBatch()
		}
		sh.mu.Unlock()
		p.SetMisbehaviorSink(sh)
	}
	wake()
}

// StageMisbehavior implements peer.MisbehaviorSink: the shard stands in
// front of its batch so that it knows, without asking, how many hits the
// batch holds. It runs on the shard's worker, inside a handler.
func (sh *shard) StageMisbehavior(p *peer.Peer, rule core.RuleID, mctx core.MisbehaviorContext) {
	sh.staged++
	sh.batch.StageMisbehavior(p, rule, mctx)
}

// flush applies the hits the visit just staged. This is the only call of
// the batch's Flush: it runs after a visit's read loop, so the batch never
// holds more than one visit's ReadBudget frames staged, and before the
// visit tears anything down or writes, so a teardown's Forget cannot
// overtake the hits that precede it. A visit that staged nothing pays one
// comparison.
func (sh *shard) flush() {
	if sh.staged == 0 {
		return
	}
	sh.work.Flushes++
	sh.work.HitsFlushed += uint64(sh.staged)
	sh.work.MaxStaged = max(sh.work.MaxStaged, sh.staged)
	sh.staged = 0
	sh.batch.Flush()
}

// wake marks the slot runnable. Stale generations — wakes armed for a
// previous occupant of a recycled slot — are discarded, which is what
// makes slot reuse safe against callbacks still held by dying pipes.
func (sh *shard) wake(idx int32, gen uint32) {
	sh.mu.Lock()
	s := sh.slotAt(idx)
	if s.gen == gen && s.p != nil && !s.queued {
		s.queued = true
		sh.runq = append(sh.runq, idx)
		sh.cond.Signal()
	}
	sh.mu.Unlock()
}

// detach retires a finished connection's slot: generation bumped (stale
// wakes die), per-peer state cleared (a future occupant inherits nothing),
// index recycled.
func (sh *shard) detach(idx int32, p *peer.Peer, conn *simnet.Conn) {
	conn.SetReadable(nil)
	conn.SetWritable(nil)
	p.SetQueueWake(nil)
	p.SetMisbehaviorSink(nil)
	sh.mu.Lock()
	s := sh.slotAt(idx)
	if s.p == p {
		s.gen++
		s.p, s.conn, s.queued = nil, nil, false
		sh.free = append(sh.free, idx)
		sh.live--
	}
	sh.mu.Unlock()
}

// loop is the shard worker: drain the run queue into a working set and pump
// each ready connection.
func (sh *shard) loop() {
	var ready []int32
	for {
		sh.mu.Lock()
		sh.stats = sh.work
		for len(sh.runq) == 0 && !sh.stopped {
			sh.cond.Wait()
		}
		if sh.stopped {
			sh.mu.Unlock()
			return
		}
		ready = append(ready[:0], sh.runq...)
		sh.runq = sh.runq[:0]
		// Clear queued under the lock before servicing: a wake arriving
		// mid-service must land in the next iteration, not be lost.
		for _, idx := range ready {
			sh.slotAt(idx).queued = false
		}
		sh.mu.Unlock()

		for _, idx := range ready {
			sh.service(idx)
		}
	}
}

// frameReady reports whether the next read on the connection cannot
// block: a complete wire frame is buffered, the direction is closed (reads
// drain then fail fast), or the claimed payload is oversized (the decoder
// rejects it from the header alone). eof is set when the direction is
// closed with nothing left to drain.
func frameReady(conn *simnet.Conn, hdr *[wire.MessageHeaderSize]byte) (ready, eof bool) {
	avail, closed := conn.ReadBuffered()
	if closed {
		return true, avail == 0
	}
	if avail < wire.MessageHeaderSize {
		return false, false
	}
	conn.PeekBuffered(hdr[:])
	payloadLen := binary.LittleEndian.Uint32(hdr[16:20])
	if payloadLen > wire.MaxMessagePayload {
		return true, false
	}
	return avail >= wire.MessageHeaderSize+int(payloadLen), false
}

// service pumps one ready connection: dispatch buffered inbound frames up
// to the read budget, flush the misbehavior they staged, then drain its
// outbound queue as far as the peer's socket buffer allows, then re-queue
// if work remains.
func (sh *shard) service(idx int32) {
	sh.mu.Lock()
	s := sh.slotAt(idx)
	p, conn, gen := s.p, s.conn, s.gen
	sh.mu.Unlock()
	if p == nil {
		return
	}
	sh.work.Visits++

	var hdr [wire.MessageHeaderSize]byte
	frames, eof, failed := 0, false, false
	for frames < DefaultReadBudget && !failed {
		var ready bool
		if ready, eof = frameReady(conn, &hdr); !ready || eof {
			break
		}
		failed = !p.ReadStep()
		frames++
	}
	sh.flush()
	if eof {
		// Nothing left to drain: surface the EOF/reset without a decode
		// round trip. The teardown forgets the peer's score, which is why
		// the hits this visit staged were applied first, as on the inline
		// path.
		p.Disconnect()
	}
	if eof || failed {
		sh.detach(idx, p, conn)
		return
	}
	if frames == DefaultReadBudget {
		sh.work.BudgetExhausted++
	}

	pending, ok := p.WriteStep(func() bool {
		space, closed := conn.WriteSpace()
		// A closed pipe must not gate the step: the write fails fast
		// and tears the peer down instead of parking its queue forever.
		return closed || space > 0
	})
	if !ok {
		sh.detach(idx, p, conn)
		return
	}

	// Re-arm if this visit left work behind: budget-exhausted reads or
	// back-pressured writes. Readiness callbacks only fire on edges, and
	// the edge for this data has already passed.
	if !pending {
		pending, _ = frameReady(conn, &hdr)
	}
	if pending {
		sh.wake(idx, gen)
	}
}
