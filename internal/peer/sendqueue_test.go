package peer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"banscore/internal/chainhash"
	"banscore/internal/simnet"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// recordConn is a net.Conn that keeps every Write as its own slice, so a
// test sees not only the bytes a peer put on the wire but how it cut them.
// With gate set, each Write first waits for a token from it.
type recordConn struct {
	mu     sync.Mutex
	writes [][]byte
	gate   chan struct{}
	quit   chan struct{}
	once   sync.Once
}

func newRecordConn() *recordConn { return &recordConn{quit: make(chan struct{})} }

func (c *recordConn) Write(p []byte) (int, error) {
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-c.quit:
			return 0, net.ErrClosed
		}
	}
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return len(p), nil
}

func (c *recordConn) Read([]byte) (int, error) {
	<-c.quit
	return 0, net.ErrClosed
}

func (c *recordConn) Close() error {
	c.once.Do(func() { close(c.quit) })
	return nil
}

func (c *recordConn) LocalAddr() net.Addr              { return simnet.Addr("10.0.0.1:8333") }
func (c *recordConn) RemoteAddr() net.Addr             { return simnet.Addr("10.0.0.2:50001") }
func (c *recordConn) SetDeadline(time.Time) error      { return nil }
func (c *recordConn) SetReadDeadline(time.Time) error  { return nil }
func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

// flushes returns the writes made so far.
func (c *recordConn) flushes() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// reply is one entry of a test's outbound sequence: queued either as a
// message or, for a PONG, by value.
type reply struct {
	msg  wire.Message
	pong bool
}

func (r reply) queue(p *Peer) error {
	if r.pong {
		return p.QueuePong(r.msg.(*wire.MsgPong).Nonce)
	}
	return p.QueueMessage(r.msg)
}

// mixedReplies is a reply sequence of every size the drain has to cut
// around: runs of PONGs long enough to fill several flushes, INVs, TXs with
// a 100 KB script (bigger than a flush on their own) and 1 MB blocks.
func mixedReplies() []reply {
	hash := chainhash.Hash{1, 2, 3}
	inv := wire.NewMsgInv()
	for i := 0; i < 30; i++ {
		inv.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &hash))
	}
	tx := wire.NewMsgTx(1)
	tx.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&hash, 0), make([]byte, 100_000), nil))
	tx.AddTxOut(wire.NewTxOut(1, []byte{0x51}))
	small := wire.NewMsgTx(1)
	small.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&hash, 1), []byte{1, 2, 3}, nil))
	small.AddTxOut(wire.NewTxOut(2, []byte{0x51}))
	block := wire.NewMsgBlock(wire.NewBlockHeader(1, &hash, &hash, time.Unix(1_600_000_000, 0), 0x207fffff, 7))
	for i := 0; i < 10; i++ {
		block.AddTransaction(tx)
	}

	var seq []reply
	pongs := func(n int) {
		for i := 0; i < n; i++ {
			seq = append(seq, reply{msg: wire.NewMsgPong(uint64(len(seq))), pong: true})
		}
	}
	pongs(2500)
	seq = append(seq, reply{msg: inv}, reply{msg: block}, reply{msg: small})
	pongs(3)
	seq = append(seq, reply{msg: tx}, reply{msg: tx}, reply{msg: inv}, reply{msg: block}, reply{msg: block})
	pongs(700)
	// A PONG queued as a message and one queued by value are the same bytes.
	seq = append(seq, reply{msg: wire.NewMsgPong(99)}, reply{msg: small})
	return seq
}

// encodeEach is the reference the drain is held to: every message framed on
// its own by EncodeMessage.
func encodeEach(t *testing.T, seq []reply) (frames [][]byte, stream []byte) {
	t.Helper()
	for _, r := range seq {
		buf, err := wire.EncodeMessage(r.msg, wire.ProtocolVersion, wire.SimNet)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, append([]byte(nil), buf.Bytes()...))
		stream = append(stream, buf.Bytes()...)
		buf.Release()
	}
	return frames, stream
}

// checkFlushes holds the writes to the two rules of the drain: together they
// are the reference stream byte for byte, and each is cut at a message
// boundary no later than one message past flushSize.
func checkFlushes(t *testing.T, writes [][]byte, stream []byte) {
	t.Helper()
	if got := bytes.Join(writes, nil); !bytes.Equal(got, stream) {
		t.Fatalf("wire bytes differ from per-message EncodeMessage: %d bytes written, want %d", len(got), len(stream))
	}
	for i, w := range writes {
		last := 0
		for rest := w; len(rest) > 0; rest = rest[last:] {
			if len(rest) < wire.MessageHeaderSize {
				t.Fatalf("write %d is cut inside a header", i)
			}
			last = wire.MessageHeaderSize + int(binary.LittleEndian.Uint32(rest[16:20]))
			if last > len(rest) {
				t.Fatalf("write %d is cut inside a message", i)
			}
		}
		if len(w)-last >= flushSize {
			t.Errorf("write %d: %d bytes before its last message, flush cut is %d", i, len(w)-last, flushSize)
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDrainMatchesPerMessageEncoding queues the mixed sequence and requires
// the bytes on the wire to be the concatenation of per-message
// EncodeMessage, cut as flushSize says, from both pumps; OnSend must see
// every message once, in order, with its own command and size.
func TestDrainMatchesPerMessageEncoding(t *testing.T) {
	seq := mixedReplies()
	frames, stream := encodeEach(t, seq)

	type sent struct {
		cmd  string
		size int
	}
	run := func(t *testing.T, runner Runner, pump func(p *Peer, conn *recordConn)) {
		conn := newRecordConn()
		var mu sync.Mutex
		var got []sent
		p := New(conn, true, Config{
			Net:            wire.SimNet,
			Runner:         runner,
			SendQueueDepth: len(seq),
			OnSend: func(cmd string, size int) {
				mu.Lock()
				got = append(got, sent{cmd, size})
				mu.Unlock()
			},
		})
		for _, r := range seq {
			if err := r.queue(p); err != nil {
				t.Fatal(err)
			}
		}
		if d := p.QueueDepth(); d != len(seq) {
			t.Fatalf("QueueDepth = %d before the first write, want %d", d, len(seq))
		}
		p.Start()
		pump(p, conn)
		p.Disconnect()
		p.WaitForShutdown()

		writes := conn.flushes()
		checkFlushes(t, writes, stream)
		// The cut rule restated: a flush closes with the message that
		// takes it to flushSize.
		flushes, open := 0, 0
		for _, f := range frames {
			if open == 0 {
				flushes++
			}
			if open += len(f); open >= flushSize {
				open = 0
			}
		}
		if len(writes) != flushes {
			t.Errorf("%d writes, want %d", len(writes), flushes)
		}
		if len(got) != len(seq) {
			t.Fatalf("OnSend fired %d times for %d messages", len(got), len(seq))
		}
		for i, r := range seq {
			if want := (sent{r.msg.Command(), len(frames[i])}); got[i] != want {
				t.Fatalf("OnSend %d = %+v, want %+v", i, got[i], want)
			}
		}
		if p.BytesSent() != uint64(len(stream)) {
			t.Errorf("BytesSent = %d, want %d", p.BytesSent(), len(stream))
		}
	}

	t.Run("writeLoop", func(t *testing.T) {
		run(t, nil, func(p *Peer, conn *recordConn) {
			waitUntil(t, "the queue to drain", func() bool { return p.BytesSent() == uint64(len(stream)) })
		})
	})
	t.Run("WriteStep", func(t *testing.T) {
		run(t, stepRunner{}, func(p *Peer, conn *recordConn) {
			// A transport with room for one write per visit: every step
			// writes one flush, reports the rest pending and leaves it
			// queued, and the next one resumes where it stopped.
			for steps := 1; ; steps++ {
				room := true
				pending, ok := p.WriteStep(func() bool { r := room; room = false; return r })
				if !ok {
					t.Fatal("WriteStep reported the connection finished")
				}
				if writes := conn.flushes(); len(writes) != steps {
					t.Fatalf("%d writes after %d one-write steps", len(writes), steps)
				}
				if pending == (p.BytesSent() == uint64(len(stream))) {
					t.Fatalf("pending = %v with %d of %d bytes written", pending, p.BytesSent(), len(stream))
				}
				if !pending {
					break
				}
			}
			if pending, ok := p.WriteStep(func() bool { return false }); pending || !ok {
				t.Errorf("WriteStep on an empty queue = (%v, %v), want (false, true)", pending, ok)
			}
		})
	})
}

// TestQueueOrderUnderConcurrentEnqueuers has several goroutines queue
// numbered messages while the write loop runs: the far end must see each
// goroutine's messages in the order it queued them, none lost, none twice.
func TestQueueOrderUnderConcurrentEnqueuers(t *testing.T) {
	const writers, each = 8, 400
	type arrival struct{ w, i uint64 }
	arrivals := make(chan arrival, writers*each)
	_, client, cleanup := pair(t,
		Config{OnMessage: func(_ *Peer, msg wire.Message, _ int) {
			if m, ok := msg.(*wire.MsgPong); ok {
				arrivals <- arrival{m.Nonce >> 32, m.Nonce & 0xffffffff}
			}
		}},
		Config{SendQueueDepth: 64})
	defer cleanup()

	var wg sync.WaitGroup
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); i < each; i++ {
				nonce := w<<32 | i
				for {
					var err error
					if i%2 == 0 {
						err = client.QueuePong(nonce)
					} else {
						err = client.QueueMessage(wire.NewMsgPong(nonce))
					}
					if err == nil {
						break
					}
					if !errors.Is(err, ErrSendQueueFull) {
						t.Errorf("enqueue: %v", err)
						return
					}
					runtime.Gosched() // queue full: retry
				}
			}
		}(w)
	}
	wg.Wait()
	var next [writers]uint64
	timeout := time.After(10 * time.Second)
	for n := 0; n < writers*each; n++ {
		select {
		case a := <-arrivals:
			if a.i != next[a.w] {
				t.Fatalf("enqueuer %d: message %d arrived where %d was due", a.w, a.i, next[a.w])
			}
			next[a.w]++
		case <-timeout:
			t.Fatalf("only %d of %d messages arrived", n, writers*each)
		}
	}
}

// TestQueueRefusesAtExactlyDepth fills a queue nobody drains: exactly
// SendQueueDepth messages are accepted, every later one is refused and
// counted, and nothing a refusal touches is charged to the tracer.
func TestQueueRefusesAtExactlyDepth(t *testing.T) {
	for _, depth := range []int{0, 5} {
		tr := trace.New(trace.Config{SampleN: 1})
		tr.Enable()
		p := New(newRecordConn(), true, Config{Net: wire.SimNet, Runner: stepRunner{}, SendQueueDepth: depth, Tracer: tr})
		p.Start()
		want := depth
		if want == 0 {
			want = sendQueueSize
		}
		for i := 0; i < want; i++ {
			if err := p.QueuePong(uint64(i)); err != nil {
				t.Fatalf("depth %d: message %d refused: %v", want, i, err)
			}
		}
		_, _, sampled := tr.Stats()
		if sampled != uint64(want) {
			t.Fatalf("sampled %d of %d accepted messages at 1-in-1", sampled, want)
		}
		for i := 0; i < 3; i++ {
			if err := p.QueueMessage(wire.NewMsgPing(1)); !errors.Is(err, ErrSendQueueFull) {
				t.Fatalf("depth %d: message past the cap: %v, want ErrSendQueueFull", want, err)
			}
		}
		if got := p.RepliesShed(); got != 3 {
			t.Errorf("RepliesShed = %d, want 3", got)
		}
		if d := p.QueueDepth(); d != want {
			t.Errorf("QueueDepth = %d, want %d", d, want)
		}
		if c := cap(p.in); c != want {
			t.Errorf("queue grew to %d entries for a cap of %d", c, want)
		}
		p.Disconnect()
		if err := p.QueuePong(1); !errors.Is(err, ErrPeerDisconnected) {
			t.Errorf("enqueue after disconnect: %v", err)
		}
		if got := p.RepliesShed(); got != 3 {
			t.Errorf("RepliesShed = %d after a post-disconnect enqueue, want 3", got)
		}
		if _, _, after := tr.Stats(); after != sampled {
			t.Errorf("refused messages were sampled: %d → %d", sampled, after)
		}
		if len(tr.Spans()) != 0 {
			t.Errorf("%d spans recorded for messages never written", len(tr.Spans()))
		}
	}
}

// TestFullQueueYieldsToWriter pins the writer off the processor the only way
// a test can: there is one, and the enqueuer blocks only once it has been
// refused. Filling the queue must hand the processor to the write loop, which
// empties it, so a burst many times the queue's depth loses next to nothing
// (the scheduler now and then runs the yielding goroutine again first);
// without the hand-over every fill ends in a refusal, one message in
// depth+1.
func TestFullQueueYieldsToWriter(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const depth, burst = 16, 100 * 16
	p := New(newRecordConn(), true, Config{Net: wire.SimNet, SendQueueDepth: depth})
	p.Start()
	defer p.WaitForShutdown()
	defer p.Disconnect()
	for i := 0; i < burst; i++ {
		if err := p.QueuePong(uint64(i)); errors.Is(err, ErrSendQueueFull) {
			runtime.Gosched() // as a read loop ends up doing: wait for input
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if shed := p.RepliesShed(); shed > burst/(depth+1)/4 {
		t.Errorf("%d of %d replies shed with the write loop runnable throughout", shed, burst)
	}
}

// TestSampledReplySpans checks that batching kept the two spans of a sampled
// outbound message: its wait in the queue and its encode-and-write, under
// one trace ID, named for its own command.
func TestSampledReplySpans(t *testing.T) {
	tr := trace.New(trace.Config{SampleN: 1})
	tr.Enable()
	conn := newRecordConn()
	p := New(conn, true, Config{Net: wire.SimNet, Runner: stepRunner{}, Tracer: tr})
	p.Start()
	defer p.Disconnect()
	if err := p.QueuePong(7); err != nil {
		t.Fatal(err)
	}
	if err := p.QueueMessage(wire.NewMsgInv()); err != nil {
		t.Fatal(err)
	}
	if pending, ok := p.WriteStep(func() bool { return true }); pending || !ok {
		t.Fatalf("WriteStep = (%v, %v)", pending, ok)
	}
	if writes := conn.flushes(); len(writes) != 1 {
		t.Fatalf("%d writes for two small replies, want one flush", len(writes))
	}
	type key struct {
		stage trace.Stage
		cmd   string
	}
	ids := map[key]uint64{}
	for _, sp := range tr.Spans() {
		if sp.Peer != string(p.ID()) || sp.Duration < 0 || sp.Start.IsZero() {
			t.Errorf("span %+v", sp)
		}
		ids[key{sp.Stage, sp.Cmd}] = sp.TraceID
	}
	if len(tr.Spans()) != 4 || len(ids) != 4 {
		t.Fatalf("spans = %+v, want send_queue and wire_encode for each of pong and inv", tr.Spans())
	}
	for _, cmd := range []string{wire.CmdPong, wire.CmdInv} {
		q, e := ids[key{trace.StageSendQueue, cmd}], ids[key{trace.StageWireEncode, cmd}]
		if q == 0 || q != e {
			t.Errorf("%s: send_queue trace %d, wire_encode trace %d", cmd, q, e)
		}
	}
}

// TestDisconnectMidBatch stops a peer whose writer is blocked inside the
// first flush of a long batch: the write loop must exit (WaitForShutdown
// returns; the package's leak check would name a survivor) and neither half
// of the queue may go on holding the messages.
func TestDisconnectMidBatch(t *testing.T) {
	seq := mixedReplies()
	queueAll := func(t *testing.T, p *Peer) {
		t.Helper()
		for _, r := range seq {
			if err := r.queue(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// released looks through both slices to the end of their arrays: an
	// entry past len still keeps its message alive.
	released := func(t *testing.T, p *Peer) {
		t.Helper()
		p.sendMu.Lock()
		in := p.in
		p.sendMu.Unlock()
		for _, q := range append(in[:cap(in):cap(in)], p.out[:cap(p.out)]...) {
			if q != (queued{}) {
				t.Fatalf("after disconnect the queue still holds a %s", q.command())
			}
		}
	}

	t.Run("writeLoop", func(t *testing.T) {
		conn := newRecordConn()
		conn.gate = make(chan struct{}, 1)
		p := New(conn, true, Config{Net: wire.SimNet, SendQueueDepth: 2 * len(seq), WriteTimeout: -1})
		queueAll(t, p)
		p.Start()
		conn.gate <- struct{}{} // let one flush through, block the second
		waitUntil(t, "the first flush", func() bool { return len(conn.flushes()) == 1 })
		queueAll(t, p) // and have messages waiting behind the taken batch too
		p.Disconnect()
		p.WaitForShutdown()
		released(t, p)
	})
	t.Run("WriteStep", func(t *testing.T) {
		p := New(newRecordConn(), true, Config{Net: wire.SimNet, Runner: stepRunner{}, SendQueueDepth: 2 * len(seq)})
		p.Start()
		queueAll(t, p)
		room := true
		if pending, ok := p.WriteStep(func() bool { r := room; room = false; return r }); !pending || !ok {
			t.Fatalf("WriteStep = (%v, %v), want a batch left half written", pending, ok)
		}
		queueAll(t, p)
		p.Disconnect()
		if _, ok := p.WriteStep(func() bool { return true }); ok {
			t.Error("WriteStep after Disconnect reported the connection alive")
		}
		released(t, p)
	})
}

// TestIdleConnectionAllocation states what a connection costs before it has
// sent anything: the Peer, two channels and the loop pair — no send queue,
// which at the default depth was 49 KB on its own.
func TestIdleConnectionAllocation(t *testing.T) {
	if size := unsafe.Sizeof(queued{}); size > 48 {
		t.Errorf("a queue entry is %d bytes, budget 48", size)
	}
	const conns = 64
	peers := make([]*Peer, conns)
	conn := newRecordConn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range peers {
		peers[i] = New(conn, true, Config{Net: wire.SimNet})
		peers[i].Start()
	}
	runtime.ReadMemStats(&after)
	for _, p := range peers {
		p.Disconnect()
		p.WaitForShutdown()
	}
	per := (after.TotalAlloc - before.TotalAlloc) / conns
	t.Logf("New + Start allocates %d bytes per idle connection", per)
	if per > 4096 {
		t.Errorf("New + Start allocates %d bytes per idle connection, budget 4096", per)
	}
}

// TestPeerLayout keeps the comment on Peer true: the struct fills the
// allocator's 448-byte class (above the 416-byte one), whose objects start
// on a cache line, and the send queue and the writer's fields each start a
// line of their own. A field added anywhere moves these; whoever adds one
// re-derives the layout instead of inheriting it.
func TestPeerLayout(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the layout is derived for 64-bit words")
	}
	var p Peer
	if size := unsafe.Sizeof(p); size <= 416 || size > 448 {
		t.Errorf("Peer is %d bytes, outside the 448-byte size class", size)
	}
	if off := unsafe.Offsetof(p.quit); off%64 != 0 {
		t.Errorf("the read-mostly fields start at offset %d, inside a cache line", off)
	}
	if off := unsafe.Offsetof(p.sendMu); off%64 != 0 {
		t.Errorf("the send queue starts at offset %d, inside a cache line", off)
	}
	if off := unsafe.Offsetof(p.out); off%64 != 0 {
		t.Errorf("the writer's fields start at offset %d, inside a cache line", off)
	}
}
