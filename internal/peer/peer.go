// Package peer implements the per-connection state machine of the full
// node: message framing loops over a net.Conn, the version-handshake state
// the VERSION/VERACK ban rules key on, and per-command traffic statistics
// feeding the detection engine's Monitor.
package peer

import (
	"encoding/binary"
	"errors"
	"net"
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

// DefaultWriteTimeout bounds each message write. A remote that stops
// reading stalls our writeLoop behind TCP back-pressure; without a
// deadline the goroutine — and the outbound slot it represents — hangs
// forever.
const DefaultWriteTimeout = 30 * time.Second

// sendQueueSize bounds the outbound message queue. It is deliberately large:
// a flooding *victim's* reply queue must not be the bottleneck under test.
const sendQueueSize = 1024

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

	// ProtocolVersion to use when encoding/decoding. Zero selects
	// wire.ProtocolVersion.
	ProtocolVersion uint32

	// IdleTimeout before an idle connection is dropped. Zero selects
	// DefaultIdleTimeout.
	IdleTimeout time.Duration

	// WriteTimeout bounds each message write to the wire. Zero selects
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration

	// OnWriteTimeout is invoked (before OnDisconnect) when a message
	// write exceeded WriteTimeout and the peer is being dropped for it.
	OnWriteTimeout func(p *Peer)

	// OnMessage is invoked from the read loop for each decoded message.
	OnMessage MessageHandler

	// OnChecksumError is invoked when a message is dropped for a
	// checksum mismatch BEFORE any application processing — the
	// score-free path of BM-DoS vector 2. The connection continues.
	OnChecksumError func(p *Peer, err error)

	// OnMalformed is invoked for a protocol-malformed message (framing
	// or decode failure other than checksum/unknown-command). The peer
	// is disconnected afterward.
	OnMalformed func(p *Peer, err error)

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

	// SendQueueDepth caps the outbound message queue. Zero selects
	// sendQueueSize (1024), sized so a flooding victim's reply queue is
	// never the bottleneck under test. Swarm-scale nodes lower it: the
	// queue buffer is zeroed at allocation and scanned by the GC, so
	// 1024 slots per peer at 100k peers is ~5 GB of dead weight.
	SendQueueDepth int
}

// Peer wraps one connection.
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

	// Traffic statistics.
	bytesReceived    atomic.Uint64
	bytesSent        atomic.Uint64
	messagesReceived atomic.Uint64

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

	sendQueue chan queued
	quit      chan struct{}
	quitOnce  sync.Once
	wg        sync.WaitGroup

	// onQueue, when set, fires after each successful QueueMessage — the
	// event loop's wake signal for outbound work. Atomic because relay
	// paths enqueue from goroutines other than the runner's workers.
	onQueue atomic.Pointer[func()]

	// misbSink, when set, diverts misbehavior application into a staging
	// buffer (see MisbehaviorSink).
	misbSink atomic.Pointer[MisbehaviorSink]

	// reuseVersion is pick's decode target for every VERSION after the
	// first, made on the first duplicate: honest peers never send one, so
	// they never pay for it. It stays the last field — a pointer added
	// mid-struct would move the offsets, and with them the cache lines the
	// read and write loops share, of every field behind it.
	reuseVersion *wire.MsgVersion

	// Without these bytes Peer is 336 bytes and comes from the allocator's
	// 352-byte size class, where every other object starts in the middle of
	// a cache line; with them it comes from the 384-byte class, whose
	// objects start on one. Measured, not argued: ping_flood absorbs ~6 %
	// fewer messages without them (EXPERIMENTS.md, "Cost of the io fork").
	_ [32]byte
}

// queued is one send-queue entry: the message plus, when the enqueue was
// sampled, its trace handle and enqueue time (for the send_queue wait span).
// Passed by value — the common untraced case allocates nothing extra.
type queued struct {
	msg wire.Message
	ctx *trace.Ctx
	at  time.Time
}

// New wraps conn as a peer. inbound records which side initiated the
// connection (the role several Table I rules key on). Call Start to begin
// the message loops.
func New(conn net.Conn, inbound bool, cfg Config) *Peer {
	if cfg.ProtocolVersion == 0 {
		cfg.ProtocolVersion = wire.ProtocolVersion
	}
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
		cfg:       cfg,
		conn:      conn,
		inbound:   inbound,
		id:        core.PeerIDFromAddr(conn.RemoteAddr().String()),
		sendQueue: make(chan queued, cfg.SendQueueDepth),
		quit:      make(chan struct{}),
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
// ErrPeerDisconnected after disconnect and ErrSendQueueFull when the queue
// is full (slow reader back-pressure).
func (p *Peer) QueueMessage(msg wire.Message) error {
	select {
	case <-p.quit:
		return ErrPeerDisconnected
	default:
	}
	q := queued{msg: msg}
	if ctx := p.cfg.Tracer.Sample(); ctx != nil {
		q.ctx, q.at = ctx, time.Now()
	}
	select {
	case p.sendQueue <- q:
		if w := p.onQueue.Load(); w != nil {
			(*w)()
		}
		return nil
	case <-p.quit:
		return ErrPeerDisconnected
	default:
		return ErrSendQueueFull
	}
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

// SetQueueWake registers fn to run after each successful QueueMessage (nil
// unregisters). Event-loop runners install their re-enqueue hook here so a
// reply queued by a handler — possibly from another shard's worker — gets
// the owning connection scheduled for a write pass.
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

// BytesSent returns the total bytes written to the peer.
func (p *Peer) BytesSent() uint64 { return p.bytesSent.Load() }

// MessagesReceived returns the count of decoded messages.
func (p *Peer) MessagesReceived() uint64 { return p.messagesReceived.Load() }

// QueueDepth returns how many messages are waiting in the send queue — the
// back-pressure signal the telemetry layer aggregates across peers.
func (p *Peer) QueueDepth() int { return len(p.sendQueue) }

// Disconnect tears the connection down. Safe to call multiple times.
func (p *Peer) Disconnect() {
	p.quitOnce.Do(func() {
		close(p.quit)
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
	msg, pbuf, err := p.codec.DecodeMessage(p.conn, p.cfg.ProtocolVersion, p.cfg.Net, p.pick)
	if err != nil {
		// A non-nil buffer with an error marks a payload-decode
		// failure (the payload was fully read but did not parse):
		// a protocol violation, or a payload that ended before its
		// message did — io.ErrUnexpectedEOF wherever it ended, one
		// class with one outcome. Release it before classifying.
		decodeFailed := pbuf != nil
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
		case isMessageError(err) || decodeFailed:
			if p.cfg.OnMalformed != nil {
				p.cfg.OnMalformed(p, err)
			}
			return readClosed
		default:
			// io error, deadline, or remote close.
			return readClosed
		}
	}
	rawLen := pbuf.Len()
	p.bytesReceived.Add(uint64(wire.MessageHeaderSize + rawLen))
	p.messagesReceived.Add(1)
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

// writeOne encodes and writes one queued message, returning false when the
// connection is finished.
func (p *Peer) writeOne(q queued) bool {
	if p.cfg.WriteTimeout > 0 {
		if err := p.conn.SetWriteDeadline(time.Now().Add(p.cfg.WriteTimeout)); err != nil {
			return false
		}
	}
	var encodeStart time.Time
	if q.ctx != nil {
		encodeStart = time.Now()
		q.ctx.Record(trace.StageSendQueue, string(p.id), q.msg.Command(), q.at, encodeStart.Sub(q.at))
	}
	buf, err := wire.EncodeMessage(q.msg, p.cfg.ProtocolVersion, p.cfg.Net)
	if err != nil {
		return false
	}
	n, err := p.conn.Write(buf.Bytes())
	buf.Release()
	p.bytesSent.Add(uint64(n))
	if err != nil {
		if isTimeout(err) && p.cfg.OnWriteTimeout != nil {
			p.cfg.OnWriteTimeout(p)
		}
		return false
	}
	if q.ctx != nil {
		q.ctx.Record(trace.StageWireEncode, string(p.id), q.msg.Command(), encodeStart, time.Since(encodeStart))
	}
	if p.cfg.OnSend != nil {
		p.cfg.OnSend(q.msg.Command(), n)
	}
	return true
}

// writeLoop drains the send queue.
func (p *Peer) writeLoop() {
	defer p.Disconnect()
	for {
		select {
		case <-p.quit:
			return
		case q := <-p.sendQueue:
			if !p.writeOne(q) {
				return
			}
		}
	}
}

// WriteStep drains queued outbound messages on behalf of an event-loop
// runner, consulting canWrite before each message so a full peer buffer
// never parks a worker (on simnet a write with any reported space proceeds
// whole — the pipe accepts a bounded overshoot). It returns pending=true
// when messages remain queued behind a full buffer, and ok=false once the
// connection is finished (the peer is already disconnected then).
func (p *Peer) WriteStep(canWrite func() bool) (pending, ok bool) {
	for {
		select {
		case <-p.quit:
			return false, false
		default:
		}
		if !canWrite() {
			return len(p.sendQueue) > 0, true
		}
		var q queued
		select {
		case q = <-p.sendQueue:
		default:
			return false, true
		}
		if !p.writeOne(q) {
			p.Disconnect()
			return false, false
		}
	}
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

func isMessageError(err error) bool {
	var mErr *wire.MessageError
	return errors.As(err, &mErr)
}
