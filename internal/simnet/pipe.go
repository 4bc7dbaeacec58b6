// Package simnet provides the in-memory network substrate of the
// reproduction: addressed, net.Conn-compatible byte streams with the three
// attacker capabilities the paper's threat models assume in a permissionless
// network — source-address spoofing (pre-connection Defamation), promiscuous
// sniffing, and sequence-guarded mid-stream injection (post-connection
// Defamation) — plus an ICMP-like network-layer fast path used by the
// flooding comparison (Table III / Fig. 7) and a deterministic fault layer
// (latency, loss, resets, partitions — see FaultPlan) for chaos testing.
// The node itself is transport agnostic: it accepts any net.Listener, so it
// runs identically on real TCP.
package simnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"banscore/internal/trace"
)

// ErrDeadlineExceeded is returned on read/write deadline expiry. It matches
// os.ErrDeadlineExceeded via errors.Is through net.Error semantics.
var ErrDeadlineExceeded error = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string   { return "simnet: i/o deadline exceeded" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// ErrConnReset is surfaced by reads and writes on a connection torn down by
// an injected reset (FaultPlan.ResetAfterBytes) — the simulation of a TCP
// RST. Unlike a graceful close, buffered data is discarded.
var ErrConnReset = errors.New("simnet: connection reset by peer")

// pipeBufferCap models the kernel socket buffer: a writer whose peer does
// not drain blocks once this many bytes are queued, exactly the flow
// control that paces a real flooding attacker to its victim's consumption
// rate. A single write larger than the cap is still accepted whole once the
// buffer drains below the cap (bounded overshoot, no deadlock).
//
// The cap is also the drain-release rule: a half that drains to empty hands
// its backing array back to the collector only if the array had grown to the
// cap, that is, only if it held a backlog writers were being paced by. A
// drained flood therefore cannot pin its high-water mark, while a working
// buffer below the cap is kept: a steady writer/reader pair at any frame
// size under the cap allocates nothing, and a reader that momentarily
// catches up with a flooder does not make the next frames re-grow the ring.
const pipeBufferCap = 4 * 1024 * 1024

// pipeHalf is one direction of a stream: a bounded in-memory byte queue,
// stored as a ring so that neither a read nor a write moves the backlog.
type pipeHalf struct {
	mu   sync.Mutex
	cond *sync.Cond
	// buf is the ring's storage (its length is the ring's capacity); the n
	// unread bytes start at head and wrap past the end. head is 0 whenever
	// n is 0.
	buf      []byte
	head     int
	n        int
	closed   bool
	closeErr error // non-nil for hard closes (reset); nil means EOF
	rdl      time.Time
	wdl      time.Time
	// seq counts bytes ever enqueued: the simulation's TCP sequence
	// number. Injection must match it (see pipeHalf.inject).
	seq uint64

	// onData fires after bytes are enqueued or the half closes; onRoom
	// fires after a read frees buffer space or the half closes. Both run
	// with mu released so they may re-enter the half (e.g. an event-loop
	// shard enqueueing the connection takes shard locks; the required
	// ordering is pipeHalf.mu before shard locks, never the reverse).
	// Callbacks are edge signals, not level state: a registrant must
	// re-check buffered()/space() itself after waking.
	onData func()
	onRoom func()
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// writeErr is what a write into a closed half returns.
func (h *pipeHalf) writeErr() error {
	if h.closeErr != nil {
		return h.closeErr
	}
	return io.ErrClosedPipe
}

// grow re-houses the ring in an array of at least need bytes, unwrapping
// the backlog to the front. Capacity doubles up to pipeBufferCap and is
// otherwise exactly what was asked for: no power-of-two rounding, so tens
// of thousands of small Sybil bursts cost what they hold and a whole-write
// overshoot costs the overshoot.
func (h *pipeHalf) grow(need int) {
	c := 2 * len(h.buf)
	if c > pipeBufferCap {
		c = pipeBufferCap
	}
	if c < need {
		c = need
	}
	buf := make([]byte, c)
	h.copyOut(buf)
	h.buf, h.head = buf, 0
}

// deliver appends p to the ring, advances seq and signals readers. Called
// with mu held; returns with mu released, the onData edge fired after.
func (h *pipeHalf) deliver(p []byte) {
	if need := h.n + len(p); need > len(h.buf) {
		h.grow(need)
	}
	tail := h.head + h.n
	if tail >= len(h.buf) {
		tail -= len(h.buf)
	}
	// The free space after tail is contiguous up to head (wrapped backlog)
	// or runs to the end of buf and continues at 0.
	c := copy(h.buf[tail:], p)
	copy(h.buf, p[c:])
	h.n += len(p)
	h.seq += uint64(len(p))
	h.cond.Broadcast()
	cb := h.onData
	h.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// copyOut copies up to len(p) buffered bytes into p, oldest first, without
// consuming them. Called with mu held.
func (h *pipeHalf) copyOut(p []byte) int {
	if len(p) > h.n {
		p = p[:h.n]
	}
	c := copy(p, h.buf[h.head:])
	copy(p[c:], h.buf)
	return len(p)
}

// wait parks on cond until the next broadcast or until dl (zero: none)
// passes, whichever is first; a dl already past fails without parking.
// Called with mu held; the caller re-checks its condition on return.
func (h *pipeHalf) wait(dl time.Time) error {
	if dl.IsZero() {
		h.cond.Wait()
		return nil
	}
	now := clk.Now()
	if !now.Before(dl) {
		return ErrDeadlineExceeded
	}
	timer := clk.AfterFunc(dl.Sub(now), h.cond.Broadcast)
	h.cond.Wait()
	timer.Stop()
	return nil
}

// write enqueues p, blocking while the buffer is at capacity. It fails
// after close or when the write deadline expires while blocked.
//
//banlint:hotpath per-write substrate path: two-segment copy into the ring, growth out of line
func (h *pipeHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	for h.n >= pipeBufferCap && !h.closed {
		if err := h.wait(h.wdl); err != nil {
			h.mu.Unlock()
			return 0, err
		}
	}
	if h.closed {
		err := h.writeErr()
		h.mu.Unlock()
		return 0, err
	}
	h.deliver(p)
	return len(p), nil
}

// inject enqueues p only if the stream stands at exactly seq, checking and
// enqueueing under one lock acquisition so a concurrent write cannot slip
// between the two. It never blocks: a full buffer is a closed receive
// window, and a segment arriving at a closed window is as out-of-window as
// one with a stale sequence number.
func (h *pipeHalf) inject(seq uint64, p []byte) error {
	h.mu.Lock()
	var err error
	switch {
	case h.closed:
		err = h.writeErr()
	case h.seq != seq:
		err = fmt.Errorf("%w: claimed %d, stream at %d", ErrSeqMismatch, seq, h.seq)
	case h.n >= pipeBufferCap:
		err = fmt.Errorf("%w: receive window closed at %d", ErrSeqMismatch, seq)
	}
	if err != nil {
		h.mu.Unlock()
		return err
	}
	h.deliver(p)
	return nil
}

// read dequeues into p, blocking until data, close, or deadline.
//
//banlint:hotpath per-read substrate path: two-segment copy out of the ring, no per-call allocation
func (h *pipeHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	for h.n == 0 {
		if h.closed {
			err := h.closeErr
			h.mu.Unlock()
			if err != nil {
				return 0, err
			}
			return 0, io.EOF
		}
		if err := h.wait(h.rdl); err != nil {
			h.mu.Unlock()
			return 0, err
		}
	}
	n := h.copyOut(p)
	h.n -= n
	h.head += n
	if h.head >= len(h.buf) {
		h.head -= len(h.buf)
	}
	if h.n == 0 {
		h.head = 0
		if len(h.buf) >= pipeBufferCap {
			h.buf = nil
		}
	}
	h.cond.Broadcast() // wake writers waiting for room
	cb := h.onRoom
	h.mu.Unlock()
	if cb != nil {
		cb()
	}
	return n, nil
}

func (h *pipeHalf) close() { h.closeWithErr(nil, false) }

// closeWithErr closes the half. A non-nil err is surfaced to readers and
// writers instead of EOF/ErrClosedPipe; discard drops any buffered data the
// way a TCP RST does.
func (h *pipeHalf) closeWithErr(err error, discard bool) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.closeErr = err
	if discard {
		h.buf, h.head, h.n = nil, 0, 0
	}
	h.cond.Broadcast()
	data, room := h.onData, h.onRoom
	h.mu.Unlock()
	// Close is both a data event (readers must observe EOF/reset) and a
	// room event (blocked writers must observe the failure).
	if data != nil {
		data()
	}
	if room != nil {
		room()
	}
}

func (h *pipeHalf) setReadDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rdl = t
	h.cond.Broadcast()
}

func (h *pipeHalf) setWriteDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.wdl = t
	h.cond.Broadcast()
}

func (h *pipeHalf) sequence() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// buffered reports how many bytes can be read without blocking, and whether
// the half has been closed.
func (h *pipeHalf) buffered() (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n, h.closed
}

// peek copies up to len(p) buffered bytes without consuming them.
func (h *pipeHalf) peek(p []byte) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.copyOut(p)
}

// space reports how many bytes can be written without blocking (zero while
// the buffer holds a bounded overshoot), and whether the half is closed.
func (h *pipeHalf) space() (int, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := pipeBufferCap - h.n
	if s < 0 {
		s = 0
	}
	return s, h.closed
}

func (h *pipeHalf) setOnData(fn func()) {
	h.mu.Lock()
	h.onData = fn
	h.mu.Unlock()
}

func (h *pipeHalf) setOnRoom(fn func()) {
	h.mu.Lock()
	h.onRoom = fn
	h.mu.Unlock()
}

// Addr is a simnet endpoint address.
type Addr string

// Network returns "simnet".
func (Addr) Network() string { return "simnet" }

// String returns the address.
func (a Addr) String() string { return string(a) }

var _ net.Addr = Addr("")

// Conn is one endpoint of a simnet stream.
type Conn struct {
	network *Network
	local   Addr
	remote  Addr

	// recv is the half this endpoint reads from; send is the half the
	// peer endpoint reads from.
	recv *pipeHalf
	send *pipeHalf

	// faults, when non-nil, degrades the local→remote direction (set at
	// dial time from the fabric's fault table). The fault-free path pays
	// exactly one nil check.
	faults *faultState

	// rxBytes/rxPackets count bytes delivered to the remote endpoint via
	// this sender while no sniffer is attached: the sniffer-free fast
	// path that keeps 100k concurrent writers off the fabric's global
	// lock. dropConn folds them into the Network's per-address maps.
	rxBytes   atomic.Uint64
	rxPackets atomic.Uint64

	closeOnce sync.Once
}

var _ net.Conn = (*Conn)(nil)

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.recv.read(p) }

// Write implements net.Conn. Bytes written are mirrored to any sniffers
// observing the link and counted toward the receiver's bandwidth. When the
// link carries a FaultPlan or crosses an active partition, the write is
// subject to delay, loss, or reset before (or instead of) delivery. With a
// lifecycle tracer installed on the fabric, 1-in-N writes are recorded as
// conn_write spans (including any fault delay and receiver back-pressure).
func (c *Conn) Write(p []byte) (int, error) {
	if t := c.network.tracer.Load(); t != nil {
		if ctx := t.Sample(); ctx != nil {
			start := clk.Now()
			n, err := c.write(p)
			ctx.Add(trace.Span{
				Stage: trace.StageConnWrite,
				Peer:  string(c.remote),
				Note:  fmt.Sprintf("from=%s bytes=%d", c.local, n),
				Start: start, Duration: clk.Since(start),
			})
			return n, err
		}
	}
	return c.write(p)
}

// write is the untraced body of Write.
func (c *Conn) write(p []byte) (int, error) {
	if c.network.partActive.Load() != 0 && c.network.isPartitioned(c.local, c.remote) {
		// Blackholed by a partition: the sender's kernel accepts the
		// bytes; the route drops them.
		c.network.faultDrops.Add(1)
		return len(p), nil
	}
	if c.faults != nil {
		return c.writeFaulty(p)
	}
	n, err := c.send.write(p)
	if err != nil {
		return n, err
	}
	c.observeDelivery(p[:n])
	return n, nil
}

// observeDelivery accounts a delivered write. Without sniffers attached the
// bytes land in this connection's atomic counters — no fabric lock; with a
// tap active the write is mirrored through the fabric's observe path.
func (c *Conn) observeDelivery(p []byte) {
	if c.network.snifferCount.Load() == 0 {
		c.rxBytes.Add(uint64(len(p)))
		c.rxPackets.Add(1)
		return
	}
	c.network.observe(c.local, c.remote, p)
}

// Close implements net.Conn, closing both directions.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		if c.faults != nil {
			c.faults.closeState()
		}
		c.recv.close()
		c.send.close()
		c.network.dropConn(c)
	})
	return nil
}

// reset tears the connection down hard: both directions fail with
// ErrConnReset and buffered data is discarded, like a TCP RST.
func (c *Conn) reset() {
	c.closeOnce.Do(func() {
		if c.faults != nil {
			c.faults.closeState()
		}
		c.recv.closeWithErr(ErrConnReset, true)
		c.send.closeWithErr(ErrConnReset, true)
		c.network.dropConn(c)
	})
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn, covering both directions.
func (c *Conn) SetDeadline(t time.Time) error {
	c.recv.setReadDeadline(t)
	c.send.setWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.recv.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. A writer blocked on a full peer
// buffer past the deadline fails with ErrDeadlineExceeded — the signal the
// peer layer's per-message write timeout turns into a disconnect.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.send.setWriteDeadline(t)
	return nil
}

// SendSeq returns the number of bytes this endpoint has sent — the
// simulation's TCP sequence state an injector must know.
func (c *Conn) SendSeq() uint64 { return c.send.sequence() }

// ReadBuffered reports how many bytes Read would return without blocking
// and whether the receive direction has been closed (EOF or reset is
// pending once the buffer drains). It is the readiness probe the event-loop
// dispatcher uses in place of a blocked reader goroutine.
func (c *Conn) ReadBuffered() (n int, closed bool) { return c.recv.buffered() }

// PeekBuffered copies up to len(p) buffered receive bytes into p without
// consuming them, returning the count copied. An event loop peeks the
// 24-byte wire header to learn the frame length before committing to a
// decode.
func (c *Conn) PeekBuffered(p []byte) int { return c.recv.peek(p) }

// WriteSpace reports how many bytes Write could accept without blocking on
// the peer's socket buffer, and whether the send direction is closed.
func (c *Conn) WriteSpace() (n int, closed bool) { return c.send.space() }

// SetReadable registers fn to run whenever bytes arrive on the receive
// direction or it closes. fn runs on the writer's goroutine with no pipe
// locks held, so it may take scheduler locks (the required order is
// pipeHalf.mu before any scheduler lock) but must not block. The callback
// is an edge trigger: fn must re-check ReadBuffered itself. Pass nil to
// unregister.
func (c *Conn) SetReadable(fn func()) { c.recv.setOnData(fn) }

// SetWritable registers fn to run whenever room frees on the send direction
// or it closes. Same contract as SetReadable.
func (c *Conn) SetWritable(fn func()) { c.send.setOnRoom(fn) }

// ErrSeqMismatch is returned by Inject when the claimed sequence number does
// not match the stream state — the simulation of an out-of-window TCP
// segment being discarded by the receiver.
var ErrSeqMismatch = errors.New("simnet: injected segment sequence number out of window")
