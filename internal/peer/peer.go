// Package peer implements the per-connection state machine of the full
// node: message framing loops over a net.Conn, the version-handshake state
// the VERSION/VERACK ban rules key on, and per-command traffic statistics
// feeding the detection engine's Monitor.
package peer

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"banscore/internal/core"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// ErrPeerDisconnected is returned by QueueMessage after Disconnect.
var ErrPeerDisconnected = errors.New("peer disconnected")

// ErrSendQueueFull is returned by QueueMessage when the outbound queue is
// full (slow reader back-pressure). It is a sentinel rather than a
// formatted error: under flood the drop path runs per message, and
// callers that care which peer it was already hold the peer.
var ErrSendQueueFull = errors.New("send queue full")

// DefaultIdleTimeout disconnects a peer that sends nothing for this long.
const DefaultIdleTimeout = 5 * time.Minute

// DefaultWriteTimeout bounds each flush of the send queue to the wire. A
// remote that stops reading stalls our writeLoop behind TCP back-pressure;
// without a deadline the goroutine — and the outbound slot it represents —
// hangs forever.
const DefaultWriteTimeout = 30 * time.Second

// sendQueueSize is the default cap on messages waiting to be written. It is
// deliberately large: a flooding *victim's* reply queue must not be the
// bottleneck under test. The cap costs nothing until it is used — see
// Config.SendQueueDepth.
const sendQueueSize = 1024

// flushSize cuts a flush: the writer stops appending messages to a write once
// it holds this many bytes, so a flush is at most flushSize-1 bytes plus one
// message. A queue of small replies goes out in one write; a queue of 1 MB
// blocks never becomes one giant one, and an event-loop runner is asked
// whether the transport has room at least this often.
const flushSize = 64 << 10

// MessageHandler receives every successfully decoded message. rawLen is the
// payload size on the wire.
type MessageHandler func(p *Peer, msg wire.Message, rawLen int)

// MisbehaviorSink receives misbehavior reports for deferred, batched
// application. An event-loop runner installs its shard's staging buffer on
// every peer it pumps (SetMisbehaviorSink); the node's misbehave path then
// stages instead of applying inline, and the runner flushes the buffer at
// the end of the peer's visit. The sink is invoked on the worker goroutine
// currently dispatching the peer, so implementations need no internal
// locking beyond the flush itself.
type MisbehaviorSink interface {
	StageMisbehavior(p *Peer, rule core.RuleID, mctx core.MisbehaviorContext)
}

// Runner owns the execution of a peer's message loops. The default (nil)
// runner is the goroutine pair readLoop/writeLoop — the right shape for a
// real TCP socket, where the kernel parks blocked readers for free. An
// event-loop dispatcher (internal/swarm) implements Runner to multiplex
// tens of thousands of simulated peers onto a fixed worker pool, driving
// the same per-message state machine through ReadStep/WriteStep.
type Runner interface {
	// Run is invoked by Start exactly once. The implementation assumes
	// responsibility for pumping the peer until Disconnect.
	Run(p *Peer)
}

// Config parameterizes a Peer.
type Config struct {
	// Net is the wire magic to speak.
	Net wire.BitcoinNet

	// IdleTimeout before an idle connection is dropped. Zero selects
	// DefaultIdleTimeout.
	IdleTimeout time.Duration

	// WriteTimeout bounds each flush of queued messages to the wire (one
	// write of at most flushSize bytes plus one message). Zero selects
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration

	// OnWriteTimeout is invoked (before OnDisconnect) when a flush
	// exceeded WriteTimeout and the peer is being dropped for it.
	OnWriteTimeout func(p *Peer)

	// OnMessage is invoked from the read loop for each decoded message.
	OnMessage MessageHandler

	// OnChecksumError is invoked when a message is dropped for a
	// checksum mismatch BEFORE any application processing — the
	// score-free path of BM-DoS vector 2. The connection continues.
	OnChecksumError func(p *Peer, err error)

	// OnDisconnect is invoked exactly once when the connection dies.
	OnDisconnect func(p *Peer)

	// OnSend, if set, is invoked from the write loop after each message
	// reaches the wire, with its command and encoded size. The telemetry
	// layer hooks this for per-command tx counters.
	OnSend func(cmd string, bytes int)

	// Tracer, if set, samples messages in both directions into lifecycle
	// traces: wire_decode spans in the read loop, send_queue/wire_encode
	// spans through the write loop. Nil (or a disabled tracer) costs the
	// loops one atomic load per message.
	Tracer *trace.Tracer

	// Runner, when set, takes over loop execution: Start hands the peer
	// to it instead of spawning the goroutine pair. See Runner.
	Runner Runner

	// SendQueueDepth caps the messages waiting for the writer; the batch
	// the writer has taken to write, at most as many again, is in flight.
	// Zero selects sendQueueSize (1024), sized so a flooding victim's
	// reply queue is never the bottleneck under test. The queue starts
	// empty and grows on demand, so an idle connection pays nothing for
	// its cap; what a connection has grown it keeps until it closes: at
	// worst two slices (one filling, one being written) of SendQueueDepth
	// entries of 40 bytes each — 80 KB at the default, for a peer that
	// once filled its queue. Swarm-scale nodes lower the cap to bound that
	// worst case across 100k connections.
	SendQueueDepth int
}

// Peer wraps one connection. Its fields are laid out by who writes them,
// because the read loop and the write loop run on different cores under a
// flood and every line they both write is handed back and forth per message:
// what the read side writes comes first, then a line read by everyone and
// written only at set-up and tear-down (from quit on), then the send queue
// both sides lock, then — last, on a line of its own — what only the writer
// touches. Peer is 432 bytes and comes from the allocator's 448-byte size
// class, whose objects start on a cache line, so the offsets are the lines
// (TestPeerLayout). Measured, not argued: with the writer's fields among the
// others ping_flood absorbs 8 % fewer messages (PERF.md, "Cost of the reply
// path").
type Peer struct {
	cfg     Config
	conn    net.Conn
	inbound bool
	id      core.PeerID

	// Handshake state, owned by the node's dispatcher.
	versionReceived atomic.Bool
	verackReceived  atomic.Bool
	versionSent     atomic.Bool

	// Remote VERSION fields once received.
	mu            sync.Mutex
	remoteVersion *wire.MsgVersion

	// Inbound traffic statistics (bytesSent is with the writer's fields).
	bytesReceived atomic.Uint64

	// traceCtx is the lifecycle trace of the inbound message currently
	// being dispatched, if it was sampled. An atomic pointer because
	// direct-injection paths (benchmarks, Table II) dispatch from other
	// goroutines than the read loop.
	traceCtx atomic.Pointer[trace.Ctx]

	// evidence is the wire evidence of the message currently being
	// dispatched, packed checksum<<32|payloadLen into one word so the
	// misbehavior path reads a consistent (digest, length) pair with a
	// single atomic load even against direct-injection dispatchers.
	evidence atomic.Uint64

	// codec owns the per-connection decode state (the header scratch), and
	// pick returns reusable decode targets for commands whose
	// handlers never retain the message — ping, pong and (reuseVersion, below)
	// a duplicate VERSION, the flood shapes. All are used exclusively from
	// the read loop.
	codec     wire.Codec
	pick      func(cmd string) wire.Message
	reusePing wire.MsgPing
	reusePong wire.MsgPong

	// The read side's fields end 16 bytes short of a line; this starts
	// quit on the next one.
	_ [16]byte

	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup

	// onQueue, when set, fires on the same edge as wake — the event loop's
	// signal for outbound work. Atomic because relay paths enqueue from
	// goroutines other than the runner's workers.
	onQueue atomic.Pointer[func()]

	// misbSink, when set, diverts misbehavior application into a staging
	// buffer (see MisbehaviorSink).
	misbSink atomic.Pointer[MisbehaviorSink]

	// reuseVersion is pick's decode target for every VERSION after the
	// first, made on the first duplicate: honest peers never send one, so
	// they never pay for it.
	reuseVersion *wire.MsgVersion

	// The send queue. sendMu guards in (messages accepted and not yet taken
	// by the writer, in order: what SendQueueDepth caps), closed and shed;
	// it is never held across a write. depth publishes len(in) to readers
	// without the lock: QueueDepth, and the writer's look before it locks.
	// wake carries the empty → non-empty edge of in to a parked writeLoop.
	sendMu sync.Mutex
	in     []queued
	closed bool
	shed   uint64
	depth  atomic.Int32
	wake   chan struct{}

	// Owned by the writer (writeLoop, or the runner's worker inside
	// WriteStep): the batch it swapped out of in, how far into it the
	// flushes have got, the PONG it encodes by-value entries from, and the
	// bytes it has put on the wire.
	out       []queued
	next      int
	sendPong  wire.MsgPong
	bytesSent atomic.Uint64
}

// queued is one send-queue entry, 40 bytes: the message — or, with msg nil, a
// PONG carried by value as its nonce, which the writer encodes from its own
// MsgPong so that answering a PING allocates nothing — plus, when the enqueue
// was sampled, its trace handle and a clock reading in Unix nanoseconds: the
// enqueue time while it waits (the send_queue span), the encode start once
// the writer has picked it up (the wire_encode span).
type queued struct {
	msg   wire.Message
	ctx   *trace.Ctx
	nonce uint64
	at    int64
}

// command names the entry's wire command.
func (q *queued) command() string {
	if q.msg == nil {
		return wire.CmdPong
	}
	return q.msg.Command()
}

// New wraps conn as a peer. inbound records which side initiated the
// connection (the role several Table I rules key on). Call Start to begin
// the message loops.
func New(conn net.Conn, inbound bool, cfg Config) *Peer {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.SendQueueDepth <= 0 {
		cfg.SendQueueDepth = sendQueueSize
	}
	p := &Peer{
		cfg:     cfg,
		conn:    conn,
		inbound: inbound,
		id:      core.PeerIDFromAddr(conn.RemoteAddr().String()),
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
	}
	// Built once so the read loop does not allocate a method-value closure
	// per message. Only messages no handler retains past dispatch are safe
	// to reuse: ping, pong, and a VERSION once versionReceived is set — the
	// first one MarkVersionReceived keeps, so it stays a fresh allocation;
	// every later one is the "Duplicate VERSION" misbehavior, scored by
	// command alone. Everything else (block relay, ADDR) may be retained.
	p.pick = func(cmd string) wire.Message {
		switch cmd {
		case wire.CmdPing:
			return &p.reusePing
		case wire.CmdPong:
			return &p.reusePong
		case wire.CmdVersion:
			if p.versionReceived.Load() {
				if p.reuseVersion == nil {
					p.reuseVersion = &wire.MsgVersion{}
				}
				return p.reuseVersion
			}
		}
		return nil
	}
	return p
}

// Start launches the peer's message processing: the read/write goroutine
// pair by default, or the configured Runner's event-driven dispatch.
func (p *Peer) Start() {
	if p.cfg.Runner != nil {
		p.cfg.Runner.Run(p)
		return
	}
	p.spawn(p.readLoop)
	p.spawn(p.writeLoop)
}

// spawn runs fn on a goroutine registered with the peer's WaitGroup
// before it starts, so WaitForShutdown collects it. The banlint gospawn
// analyzer restricts go statements in this package to this helper.
func (p *Peer) spawn(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// ID returns the peer's connection identifier ([IP:Port]) — the object the
// ban-score mechanism tracks and bans.
func (p *Peer) ID() core.PeerID { return p.id }

// Inbound reports whether the remote initiated the connection.
func (p *Peer) Inbound() bool { return p.inbound }

// Addr returns the remote address string.
func (p *Peer) Addr() string { return p.conn.RemoteAddr().String() }

// Conn exposes the underlying transport connection. Runners use it to
// register readiness callbacks on event-capable transports (simnet).
func (p *Peer) Conn() net.Conn { return p.conn }

// LocalAddr returns the local address string.
func (p *Peer) LocalAddr() string { return p.conn.LocalAddr().String() }

// VersionReceived reports whether the remote's VERSION has arrived.
func (p *Peer) VersionReceived() bool { return p.versionReceived.Load() }

// MarkVersionReceived records the remote's VERSION message. It returns
// false if a VERSION was already recorded (the "Duplicate VERSION"
// misbehavior).
func (p *Peer) MarkVersionReceived(v *wire.MsgVersion) bool {
	if p.versionReceived.Swap(true) {
		return false
	}
	p.mu.Lock()
	p.remoteVersion = v
	p.mu.Unlock()
	return true
}

// RemoteVersion returns the remote's VERSION message, or nil before the
// handshake.
func (p *Peer) RemoteVersion() *wire.MsgVersion {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.remoteVersion
}

// VerAckReceived reports whether the remote's VERACK has arrived.
func (p *Peer) VerAckReceived() bool { return p.verackReceived.Load() }

// MarkVerAckReceived records the remote's VERACK.
func (p *Peer) MarkVerAckReceived() { p.verackReceived.Store(true) }

// VersionSent reports whether our VERSION has been queued to this peer.
func (p *Peer) VersionSent() bool { return p.versionSent.Load() }

// MarkVersionSent records that our VERSION has been queued.
func (p *Peer) MarkVersionSent() { p.versionSent.Store(true) }

// HandshakeComplete reports whether both VERSION and VERACK have arrived.
func (p *Peer) HandshakeComplete() bool {
	return p.VersionReceived() && p.VerAckReceived()
}

// QueueMessage enqueues a message for delivery. It returns
// ErrPeerDisconnected after disconnect and ErrSendQueueFull when
// SendQueueDepth messages are already waiting for the writer (slow reader
// back-pressure); RepliesShed counts the latter.
func (p *Peer) QueueMessage(msg wire.Message) error {
	return p.enqueue(queued{msg: msg})
}

// QueuePong enqueues the PONG answering a PING with the given nonce, as
// QueueMessage(wire.NewMsgPong(nonce)) would, without building the message:
// the nonce travels in the queue entry.
func (p *Peer) QueuePong(nonce uint64) error {
	return p.enqueue(queued{nonce: nonce})
}

// enqueue is the one way into the send queue. The writer is signalled only
// when the entry is the first one waiting: every later one is taken by the
// pass that signal already owes.
//
// Once the queue has grown it allocates nothing.
func (p *Peer) enqueue(q queued) error {
	p.sendMu.Lock()
	if p.closed {
		p.sendMu.Unlock()
		return ErrPeerDisconnected
	}
	if len(p.in) >= p.cfg.SendQueueDepth {
		p.shed++
		p.sendMu.Unlock()
		return ErrSendQueueFull
	}
	// Sampled only now that the entry is accepted: a refused message must
	// not burn a trace ID it will never record a span under.
	if ctx := p.cfg.Tracer.Sample(); ctx != nil {
		q.ctx, q.at = ctx, time.Now().UnixNano()
	}
	if len(p.in) == cap(p.in) {
		p.in = grown(p.in, p.cfg.SendQueueDepth)
	}
	p.in = append(p.in, q)
	p.depth.Store(int32(len(p.in)))
	first, full := len(p.in) == 1, len(p.in) == p.cfg.SendQueueDepth
	p.sendMu.Unlock()
	if full && p.cfg.Runner == nil {
		// The queue has just filled: the write loop is behind, and more
		// than four times in five (ping_flood, counted) it is behind
		// because it was signalled and has not been given a processor
		// since. Step aside
		// once so that it can take the queue before the next reply has
		// to be dropped. A queue that stays full — a reader that has
		// stopped reading — refuses above and never comes back here.
		runtime.Gosched()
	}
	if first {
		select {
		case p.wake <- struct{}{}:
		default:
		}
		if w := p.onQueue.Load(); w != nil {
			(*w)()
		}
	}
	return nil
}

// grown returns a copy of the full slice q with room for more: capacity
// doubles from 8 up to the queue's cap, so the slices never hold more than
// SendQueueDepth entries each.
func grown(q []queued, depth int) []queued {
	return append(make([]queued, 0, min(max(2*cap(q), 8), depth)), q...)
}

// RepliesShed returns how many messages the send queue has refused with
// ErrSendQueueFull: replies (and relays) the node owed this peer and dropped
// because it reads slower than it asks.
func (p *Peer) RepliesShed() uint64 {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return p.shed
}

// SetMisbehaviorSink installs (or, with nil, removes) the staging buffer
// misbehavior reports divert into while this peer is event-driven.
func (p *Peer) SetMisbehaviorSink(s MisbehaviorSink) {
	if s == nil {
		p.misbSink.Store(nil)
		return
	}
	p.misbSink.Store(&s)
}

// MisbehaviorSink returns the installed staging buffer, or nil when
// misbehavior applies inline.
func (p *Peer) MisbehaviorSink() MisbehaviorSink {
	if sp := p.misbSink.Load(); sp != nil {
		return *sp
	}
	return nil
}

// SetQueueWake registers fn to run whenever a message is queued with none
// waiting in front of it (nil unregisters). Event-loop runners install their
// re-enqueue hook here so a reply queued by a handler — possibly from another
// shard's worker — gets the owning connection scheduled for a write pass;
// that pass takes every message queued by then, so later ones need no wake.
func (p *Peer) SetQueueWake(fn func()) {
	if fn == nil {
		p.onQueue.Store(nil)
		return
	}
	p.onQueue.Store(&fn)
}

// TraceCtx returns the lifecycle trace of the inbound message currently
// being dispatched for this peer, or nil when it was not sampled.
func (p *Peer) TraceCtx() *trace.Ctx { return p.traceCtx.Load() }

// SetTraceCtx installs (or, with nil, clears) the dispatch-scope trace
// context. The read loop sets it around OnMessage; direct-injection callers
// (node.handleTraced) set it when they own the sample.
func (p *Peer) SetTraceCtx(ctx *trace.Ctx) { p.traceCtx.Store(ctx) }

// LastEvidence returns the wire evidence of the inbound message currently
// being dispatched: its payload checksum (big-endian, as framed on the
// wire) and payload length. It is (0, 0) outside a dispatch or on
// direct-injection paths that bypass the codec — the forensics record then
// simply omits the evidence fields.
func (p *Peer) LastEvidence() (digest uint32, payloadLen int) {
	packed := p.evidence.Load()
	return uint32(packed >> 32), int(uint32(packed))
}

// setEvidence publishes the current dispatch's wire evidence.
func (p *Peer) setEvidence(digest uint32, payloadLen int) {
	p.evidence.Store(uint64(digest)<<32 | uint64(uint32(payloadLen)))
}

// BytesReceived returns the total payload+header bytes read from the peer.
func (p *Peer) BytesReceived() uint64 { return p.bytesReceived.Load() }

// BytesSent returns the total bytes written to the peer. A write counts
// once its conn.Write has returned, so the remote end may already have
// read bytes this count does not show yet.
func (p *Peer) BytesSent() uint64 { return p.bytesSent.Load() }

// QueueDepth returns how many messages are waiting for the writer — the
// back-pressure signal the telemetry layer aggregates across peers.
func (p *Peer) QueueDepth() int { return int(p.depth.Load()) }

// Disconnect tears the connection down. Safe to call multiple times.
func (p *Peer) Disconnect() {
	p.quitOnce.Do(func() {
		close(p.quit)
		// Refuse what comes after and let go of what was waiting; the
		// writer lets go of the batch it holds when it sees quit.
		p.sendMu.Lock()
		p.closed = true
		p.in = nil
		p.sendMu.Unlock()
		p.conn.Close()
		if p.cfg.OnDisconnect != nil {
			p.cfg.OnDisconnect(p)
		}
	})
}

// Disconnected reports whether Disconnect has begun. OnDisconnect may still
// be running on the goroutine that called it.
func (p *Peer) Disconnected() bool {
	select {
	case <-p.quit:
		return true
	default:
		return false
	}
}

// WaitForShutdown blocks until both loops have exited.
func (p *Peer) WaitForShutdown() { p.wg.Wait() }

// readStatus classifies one pass of the inbound state machine.
type readStatus int

const (
	// readOK: one message was decoded and dispatched.
	readOK readStatus = iota
	// readSkip: a score-free drop (checksum mismatch, unknown command);
	// the connection continues.
	readSkip
	// readClosed: the connection is finished (io error, malformed
	// message, remote close); the caller must tear the peer down.
	readClosed
)

// readOne runs the inbound state machine for exactly one wire event:
// decode, classify errors per the Table I rules, publish evidence, and
// dispatch. It is the shared body of the blocking readLoop and the
// event-loop ReadStep; it blocks only as long as its next frame is
// incomplete, so a non-blocking caller must gate on frame availability.
func (p *Peer) readOne(tr *trace.Tracer) readStatus {
	// One atomic load when tracing is off. The decode span's clock
	// starts before the blocking read, so it bounds wait + transfer
	// + parse for the sampled message.
	var decodeStart time.Time
	if tr.Armed() {
		decodeStart = time.Now()
	}
	msg, pbuf, err := p.codec.DecodeMessage(p.conn, wire.ProtocolVersion, p.cfg.Net, p.pick)
	if err != nil {
		// A non-nil buffer with an error marks a payload-decode
		// failure (the payload was fully read but did not parse).
		// Release it before classifying.
		pbuf.Release()
		switch {
		case errors.Is(err, wire.ErrChecksumMismatch):
			// Dropped pre-application, connection continues,
			// no ban score — the paper's bogus-message vector.
			p.bytesReceived.Add(uint64(wire.MessageHeaderSize))
			if p.cfg.OnChecksumError != nil {
				p.cfg.OnChecksumError(p, err)
			}
			return readSkip
		case isUnknownCommand(err):
			// Unknown commands are ignored, also score-free.
			p.bytesReceived.Add(uint64(wire.MessageHeaderSize))
			return readSkip
		default:
			// A malformed frame or payload — a protocol violation, or
			// a payload that ended before its message did — an io
			// error, a deadline, or a remote close: the peer is
			// dropped.
			return readClosed
		}
	}
	rawLen := pbuf.Len()
	p.bytesReceived.Add(uint64(wire.MessageHeaderSize + rawLen))
	// Snapshot the verified wire checksum as misbehavior evidence for
	// the dispatch below: if a handler scores this message, the
	// forensics record names the exact bytes. Published before and
	// cleared after OnMessage, mirroring traceCtx.
	sum := p.codec.LastChecksum()
	p.setEvidence(binary.BigEndian.Uint32(sum[:]), rawLen)
	if p.cfg.OnMessage != nil {
		if !decodeStart.IsZero() {
			if ctx := tr.Sample(); ctx != nil {
				ctx.Record(trace.StageWireDecode, string(p.id), msg.Command(), decodeStart, time.Since(decodeStart))
				// Publish the trace for the dispatch below it:
				// the node's handle/misbehave spans join it.
				p.traceCtx.Store(ctx)
				p.cfg.OnMessage(p, msg, rawLen)
				p.traceCtx.Store(nil)
				p.evidence.Store(0)
				pbuf.Release()
				return readOK
			}
		}
		p.cfg.OnMessage(p, msg, rawLen)
	}
	p.evidence.Store(0)
	pbuf.Release()
	return readOK
}

// readLoop decodes messages until the connection dies.
func (p *Peer) readLoop() {
	defer p.Disconnect()
	tr := p.cfg.Tracer
	for {
		select {
		case <-p.quit:
			return
		default:
		}
		if err := p.conn.SetReadDeadline(time.Now().Add(p.cfg.IdleTimeout)); err != nil {
			return
		}
		if p.readOne(tr) == readClosed {
			return
		}
	}
}

// ReadStep decodes and dispatches exactly one inbound message on behalf of
// an event-loop runner. The caller must have established that a complete
// frame (or a terminal condition: close, reset, oversized header) is
// available, so the step never parks a worker. It returns false once the
// connection is finished — the peer is already disconnected then.
func (p *Peer) ReadStep() bool {
	select {
	case <-p.quit:
		return false
	default:
	}
	if p.readOne(p.cfg.Tracer) == readClosed {
		p.Disconnect()
		return false
	}
	return true
}

// drain is the outbound state machine, the shared body of the blocking
// writeLoop and the event-loop WriteStep as readOne is of the read side: take
// everything queued under one lock acquisition, then flush it in order,
// asking canWrite (nil: always) before every write. It returns pending=true
// when messages remain behind a transport with no room, and ok=false once
// the connection is finished; the caller tears the peer down then.
func (p *Peer) drain(canWrite func() bool) (pending, ok bool) {
	for {
		if p.Disconnected() {
			p.dropBatch()
			return false, false
		}
		if p.next == len(p.out) && !p.take() {
			return false, true
		}
		if canWrite != nil && !canWrite() {
			return true, true
		}
		if !p.flush() {
			p.dropBatch()
			return false, false
		}
	}
}

// take swaps the writer's finished batch for everything queued since, and
// reports whether that is anything.
func (p *Peer) take() bool {
	if p.depth.Load() == 0 {
		return false
	}
	p.sendMu.Lock()
	p.in, p.out = p.out[:0], p.in
	p.depth.Store(0)
	p.sendMu.Unlock()
	p.next = 0
	return len(p.out) > 0
}

// dropBatch releases the messages of a batch that will never be written.
func (p *Peer) dropBatch() {
	p.out, p.next = nil, 0
}

// flush encodes the batch from p.next on into one pooled buffer, stopping at
// flushSize bytes, and puts it on the wire with one deadline and one write.
// It returns false when the connection is finished.
func (p *Peer) flush() bool {
	from := p.next
	traced := false
	buf := wire.GetBuf(0)
	for p.next < len(p.out) && buf.Len() < flushSize {
		q := &p.out[p.next]
		msg := q.msg
		if msg == nil {
			p.sendPong.Nonce = q.nonce
			msg = &p.sendPong
		}
		if q.ctx != nil {
			traced = true
			p.traceDequeued(q)
		}
		if err := wire.AppendMessage(buf, msg, wire.ProtocolVersion, p.cfg.Net); err != nil {
			buf.Release()
			return false
		}
		p.next++
	}
	if p.cfg.WriteTimeout > 0 {
		if err := p.conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout)); err != nil {
			buf.Release()
			return false
		}
	}
	n, err := p.conn.Write(buf.Bytes())
	p.bytesSent.Add(uint64(n))
	if err != nil {
		buf.Release()
		if isTimeout(err) && p.cfg.OnWriteTimeout != nil {
			p.cfg.OnWriteTimeout(p)
		}
		return false
	}
	sent := p.out[from:p.next]
	if traced || p.cfg.OnSend != nil {
		p.reportSent(sent, buf.Bytes())
	}
	buf.Release()
	clear(sent)
	return true
}

// traceDequeued closes a sampled entry's send_queue span as the writer picks
// it up, and restarts its clock for the wire_encode span.
func (p *Peer) traceDequeued(q *queued) {
	now := time.Now()
	queuedAt := time.Unix(0, q.at)
	q.ctx.Record(trace.StageSendQueue, string(p.id), q.command(), queuedAt, now.Sub(queuedAt))
	q.at = now.UnixNano()
}

// reportSent tells OnSend and the tracer about each message of a flush that
// reached the wire, reading the messages' sizes back out of the frames
// written: a message's wire_encode span runs from its own encode to the end
// of the write it shared.
func (p *Peer) reportSent(sent []queued, frames []byte) {
	now := time.Now()
	for i := range sent {
		q := &sent[i]
		size := wire.MessageHeaderSize + int(binary.LittleEndian.Uint32(frames[16:20]))
		frames = frames[size:]
		if q.ctx != nil {
			encodeStart := time.Unix(0, q.at)
			q.ctx.Record(trace.StageWireEncode, string(p.id), q.command(), encodeStart, now.Sub(encodeStart))
		}
		if p.cfg.OnSend != nil {
			p.cfg.OnSend(q.command(), size)
		}
	}
}

// writeLoop drains the send queue whenever it stops being empty.
func (p *Peer) writeLoop() {
	defer p.Disconnect()
	for {
		if _, ok := p.drain(nil); !ok {
			return
		}
		select {
		case <-p.quit:
			return
		case <-p.wake:
		}
	}
}

// WriteStep drains queued outbound messages on behalf of an event-loop
// runner, consulting canWrite before each write so a full peer buffer never
// parks a worker (on simnet a write with any reported space proceeds whole —
// the pipe accepts a bounded overshoot, of one flush). It returns
// pending=true when messages remain queued behind a full buffer — the next
// step resumes them in order — and ok=false once the connection is finished
// (the peer is already disconnected then).
func (p *Peer) WriteStep(canWrite func() bool) (pending, ok bool) {
	pending, ok = p.drain(canWrite)
	if !ok {
		p.Disconnect()
	}
	return pending, ok
}

// isTimeout reports whether err is an i/o deadline expiry (net.Error with
// Timeout(), which both real sockets and simnet pipes satisfy).
func isTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

func isUnknownCommand(err error) bool {
	var unknown *wire.ErrUnknownCommand
	return errors.As(err, &unknown)
}
