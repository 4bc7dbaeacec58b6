package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"banscore/internal/banstore"
	"banscore/internal/chainhash"
	"banscore/internal/core"
	"banscore/internal/detect"
	"banscore/internal/mempool"
	"banscore/internal/node"
	"banscore/internal/peer"
	"banscore/internal/reputation"
	"banscore/internal/simnet"
	"banscore/internal/swarm"
	"banscore/internal/telemetry"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// The traced run. Leaf layers (simnet, wire, core, reputation, banstore,
// detect, mempool) are probed directly with the workload's own inputs;
// composite layers (peer, swarm, node, telemetry, trace) are probed as
// stacks and attributed by difference. Every *_ns_per_* figure is process
// CPU (user+system) per message, the same clock as the end-to-end
// cpu_ns_per_msg the ledger reconciles against — so a two-goroutine
// pipeline is charged for both of its ends, as it is end to end.

// probeEnv is one workload's probe inputs and outputs.
type probeEnv struct {
	name    string
	o       runOptions
	rec     *recorder
	out     map[string]float64
	n       int            // messages per probe
	s       *stream        // the workload's frames, for the byte-level probes
	msgs    []wire.Message // s.table decoded, for the dispatch probes (nil entries where a frame does not decode)
	replies []wire.Message // what the victim sends back on this workload, in proportion
	perMsg  float64        // replies per absorbed message
	perConn float64        // messages per connection (0: connections are set-up only)
	txs     []*wire.MsgTx
	warm    []*wire.MsgTx // honest_relay: the transactions its INVs name, known to the victim beforehand
	ids     []core.PeerID // the Sybil workloads' identity sequence
}

// probeMsgs sizes a probe from the workload's unit count.
func probeMsgs(name string, units int) int {
	perUnit := map[string]int{"sybil_swarm": core.DefaultBanThreshold, "serial_sybil_durable": core.DefaultBanThreshold + 2}[name]
	if perUnit == 0 {
		perUnit = 1
	}
	n := units * perUnit / 8
	lo, hi := 2*slabMsgs, 100*slabMsgs
	if name == "bogus_block_flood" {
		lo, hi = 4, 192
	}
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	return n
}

func newProbeEnv(name string, o runOptions) (*probeEnv, error) {
	e := &probeEnv{name: name, o: o, out: map[string]float64{},
		rec: &recorder{runID: uint64(o.seed)<<16 | uint64(os.Getpid()&0xffff)}}
	e.n = probeMsgs(name, o.units)
	pong := wire.NewMsgPong(1)
	var err error
	switch name {
	case "ping_flood":
		e.s, err = pingStream(o.seed, e.n)
		e.replies, e.perMsg = []wire.Message{pong}, 1
	case "bogus_block_flood":
		e.s, err = blockStream(o.seed, e.n)
	case "honest_relay":
		var in *honestInputs
		if in, err = newHonestInputs(o.seed, e.n); err == nil {
			e.s, e.txs, e.warm = in.stream, in.txs, in.txs[:in.preload.count]
			// GETDATA is answered with the TX, PING with a PONG, and an
			// accepted TX is announced to the relay sink.
			inv := wire.NewMsgInv()
			hash := in.txs[0].TxHash()
			inv.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &hash))
			for k := 0; k < 12; k++ {
				e.replies = append(e.replies, in.txs[k%len(in.txs)])
			}
			e.replies = append(e.replies, pong, pong, pong, inv, inv)
			// Per message of the end-to-end run (the probe's own, shorter
			// stream has a larger share of first deliveries).
			relayed := 0.13 * float64(o.units)
			if relayed > honestPool {
				relayed = honestPool
			}
			e.perMsg = 0.12 + 0.03 + relayed/float64(o.units)
		}
	case "sybil_swarm", "serial_sybil_durable":
		var in *sybilInputs
		if in, err = newSybilInputs(o.seed, e.n/core.DefaultBanThreshold+1); err == nil {
			e.s = &stream{table: [][]byte{in.dup}, count: e.n}
			identity := swarmIdentity
			e.perConn = core.DefaultBanThreshold
			if name == "serial_sybil_durable" {
				identity, e.perConn = serialIdentity, core.DefaultBanThreshold+2
			}
			for _, i := range in.order {
				e.ids = append(e.ids, core.PeerIDFromAddr(identity(i)))
			}
			e.replies = []wire.Message{nil, &wire.MsgVerAck{}} // VERSION filled in below
			e.perMsg = 2 / e.perConn
		}
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		return nil, err
	}
	return e, e.decodeTable()
}

// decodeTable decodes every distinct frame once, through the pooled codec,
// for the probes that take messages instead of bytes. The payload buffers
// are detached: decoded messages may alias them.
func (e *probeEnv) decodeTable() error {
	if e.name == "bogus_block_flood" {
		return nil // nothing of it decodes: that is the workload
	}
	var codec wire.Codec
	e.msgs = make([]wire.Message, len(e.s.table))
	for i, frame := range e.s.table {
		msg, buf, err := codec.DecodeMessage(bytes.NewReader(frame), wire.ProtocolVersion, wire.SimNet, nil)
		if err != nil {
			buf.Release()
			return fmt.Errorf("decode table frame %d: %w", i, err)
		}
		buf.Detach()
		e.msgs[i] = msg
		if v, ok := msg.(*wire.MsgVersion); ok {
			e.replies[0] = v
		}
	}
	return nil
}

// evidence decodes the workload's VERSION frame and returns the misbehavior
// context a node would attach to a hit it caused: the digest is the codec's
// own checksum of bytes it really decoded.
func (e *probeEnv) evidence() core.MisbehaviorContext {
	var codec wire.Codec
	frame := e.s.table[0]
	_, buf, err := codec.DecodeMessage(bytes.NewReader(frame), wire.ProtocolVersion, wire.SimNet, nil)
	buf.Release()
	if err != nil {
		return core.MisbehaviorContext{}
	}
	sum := codec.LastChecksum() // big-endian on the wire, as peer.LastEvidence reports it
	return core.MisbehaviorContext{
		Command:       wire.CmdVersion,
		PayloadDigest: uint32(sum[0])<<24 | uint32(sum[1])<<16 | uint32(sum[2])<<8 | uint32(sum[3]),
		PayloadLen:    len(frame) - wire.MessageHeaderSize,
	}
}

// msg returns the decoded form of message i of the stream.
func (e *probeEnv) msg(i int) (wire.Message, int) {
	idx := 0
	if e.s.sched != nil {
		idx = int(e.s.sched[i])
	}
	return e.msgs[idx], len(e.s.table[idx]) - wire.MessageHeaderSize
}

// loop runs a single-goroutine probe: fn handles message i and returns the
// bytes it covered. The probe is charged its own thread's CPU.
func (e *probeEnv) loop(probe string, n int, fn func(i int) int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	m := e.rec.newMarker(probe, n)
	m.thread = true
	m.begin()
	for i := 0; i < n; i++ {
		m.hit(fn(i))
	}
}

// listen opens a fresh fabric with a listener at the victim's address.
func listen() (*simnet.Network, *simnet.Listener, error) {
	fabric := simnet.NewNetwork()
	l, err := fabric.Listen(victimAddr)
	if err != nil {
		fabric.Close()
		return nil, nil, err
	}
	return fabric, l, nil
}

// dialAccept makes one connection from the given address and returns both
// of its ends.
func dialAccept(fabric *simnet.Network, l *simnet.Listener, from string) (client, server *simnet.Conn, err error) {
	if client, err = fabric.Dial(from, victimAddr); err != nil {
		return nil, nil, err
	}
	accepted, err := l.Accept()
	if err != nil {
		return nil, nil, err
	}
	return client, accepted.(*simnet.Conn), nil
}

// pair dials a connection pair over a fresh fabric.
func pair() (fabric *simnet.Network, client, server *simnet.Conn, err error) {
	fabric, l, err := listen()
	if err != nil {
		return nil, nil, nil, err
	}
	if client, server, err = dialAccept(fabric, l, flooderAddr); err != nil {
		fabric.Close()
		return nil, nil, nil, err
	}
	return fabric, client, server, nil
}

// pipeline streams the workload's frames into the client end of a pair
// while consume, given the server end and the marker, eats them; it returns
// when the marker has seen every message.
func (e *probeEnv) pipeline(probe string, consume func(server *simnet.Conn, m *marker) (stop func())) error {
	fabric, client, server, err := pair()
	if err != nil {
		return err
	}
	defer fabric.Close()
	m := e.rec.newMarker(probe, e.s.count)
	stop := consume(server, m)
	defer stop()
	go io.Copy(io.Discard, client) // replies, if the consumer sends any
	m.begin()
	if _, err := e.s.write(client, 0, e.s.count, make([]byte, 0, 64<<10)); err != nil {
		return fmt.Errorf("probe %s: %w", probe, err)
	}
	return m.wait(e.o.deadline)
}

// probeSimnet: the byte stream through a dialled pair with a bare reader
// that reads as the peer layer does — a header, then its payload — and does
// nothing else; and the cost of a dial and accept.
func (e *probeEnv) probeSimnet() error {
	err := e.pipeline("simnet.pipe", func(server *simnet.Conn, m *marker) func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var hdr [wire.MessageHeaderSize]byte
			payload := make([]byte, blockPayload)
			for {
				if _, err := io.ReadFull(server, hdr[:]); err != nil {
					return
				}
				n := binary.LittleEndian.Uint32(hdr[16:20])
				if _, err := io.ReadFull(server, payload[:n]); err != nil {
					return
				}
				m.hit(wire.MessageHeaderSize + int(n))
			}
		}()
		return func() { server.Close(); <-done }
	})
	if err != nil {
		return err
	}
	t := e.rec.total("simnet.pipe")
	e.out["simnet.pipe_ns_per_msg"] = t.nsPerMsg()
	e.out["simnet.pipe_mb_per_s"] = float64(t.bytes) / 1e6 / t.d.wall.Seconds()

	fabric, l, err := listen()
	if err != nil {
		return err
	}
	defer fabric.Close()
	const conns = 2 * slabMsgs
	var dialErr error
	start := time.Now()
	e.loop("simnet.dial_accept", conns, func(i int) int {
		c, a, err := dialAccept(fabric, l, serialIdentity(i))
		if err != nil {
			dialErr = err
			return 0
		}
		c.Close()
		a.Close()
		return 0
	})
	e.out["simnet.dial_accept_us"] = float64(time.Since(start).Microseconds()) / conns
	return dialErr
}

// reusePingPong returns a decode-target picker like the peer layer's: PING
// and PONG are decoded into reused messages. Without it a probe would charge
// wire an allocation the peer layer avoids.
func reusePingPong() func(cmd string) wire.Message {
	var ping wire.MsgPing
	var pong wire.MsgPong
	return func(cmd string) wire.Message {
		switch cmd {
		case wire.CmdPing:
			return &ping
		case wire.CmdPong:
			return &pong
		}
		return nil
	}
}

// connDecode is the probe between the two leaves and the pumps: the codec
// reading the workload's frames off a simnet connection with nothing around
// it. The pumps are stacks over exactly this, so their self time is their
// stack minus it, and what it costs beyond decoding from memory is what the
// pipe costs when it feeds a decoder.
const connDecode = "simnet+wire"

func (e *probeEnv) probeConnDecode() error {
	return e.pipeline(connDecode, func(server *simnet.Conn, m *marker) func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			var codec wire.Codec
			pick := reusePingPong()
			for {
				_, buf, err := codec.DecodeMessage(server, wire.ProtocolVersion, wire.SimNet, pick)
				n := buf.Len()
				buf.Release()
				switch {
				case err == nil:
					m.hit(wire.MessageHeaderSize + n)
				case errors.Is(err, wire.ErrChecksumMismatch):
					m.hit(wire.MessageHeaderSize + blockPayload)
				default:
					return
				}
			}
		}()
		return func() { server.Close(); <-done }
	})
}

// probeWire: the pooled codec, the checksum on its own, the encoder on the
// victim's replies, and the legacy reader, all over the workload's frames
// from memory.
func (e *probeEnv) probeWire() error {
	var codec wire.Codec
	var rd bytes.Reader
	var failed error
	pick := reusePingPong()
	e.loop("wire.decode", e.s.count, func(i int) int {
		frame := e.s.frame(i)
		rd.Reset(frame)
		_, buf, err := codec.DecodeMessage(&rd, wire.ProtocolVersion, wire.SimNet, pick)
		buf.Release()
		if err != nil && !errors.Is(err, wire.ErrChecksumMismatch) {
			failed = err
		}
		return len(frame)
	})
	if failed != nil {
		return fmt.Errorf("probe wire.decode: %w", failed)
	}
	t := e.rec.total("wire.decode")
	e.out["wire.decode_ns_per_msg"] = t.nsPerMsg()
	e.out["wire.decode_allocs_per_msg"] = t.allocsPerMsg()

	e.loop("wire.checksum", e.s.count, func(i int) int {
		payload := e.s.frame(i)[wire.MessageHeaderSize:]
		_ = chainhash.Checksum4(payload)
		return len(payload)
	})
	if t := e.rec.total("wire.checksum"); t.d.cpu > 0 {
		e.out["wire.checksum_mb_per_s"] = float64(t.bytes) / 1e6 / t.d.cpu.Seconds()
	}

	if len(e.replies) > 0 {
		e.loop("wire.encode", e.n, func(i int) int {
			buf, err := wire.EncodeMessage(e.replies[i%len(e.replies)], wire.ProtocolVersion, wire.SimNet)
			if err != nil {
				failed = err
				return 0
			}
			n := buf.Len()
			buf.Release()
			return n
		})
		if failed != nil {
			return fmt.Errorf("probe wire.encode: %w", failed)
		}
		e.out["wire.encode_ns_per_msg"] = e.rec.total("wire.encode").nsPerMsg()
	}
	return e.probeLegacyRead()
}

// noopPeer starts a peer on server whose handlers only count: the peer
// layer's own cost, with nothing above it.
func noopPeer(server *simnet.Conn, m *marker, runner peer.Runner) *peer.Peer {
	p := peer.New(server, true, peer.Config{
		Net:    wire.SimNet,
		Runner: runner,
		OnMessage: func(_ *peer.Peer, _ wire.Message, rawLen int) {
			m.hit(wire.MessageHeaderSize + rawLen)
		},
		OnChecksumError: func(*peer.Peer, error) {
			m.hit(wire.MessageHeaderSize + blockPayload)
		},
	})
	p.Start()
	return p
}

// probePeer: the goroutine pump as a stack over simnet and wire (its self
// time is the stack minus those two), connection start and stop, and the
// reply path from QueueMessage to the far end of the pipe.
func (e *probeEnv) probePeer() error {
	err := e.pipeline("peer.pump", func(server *simnet.Conn, m *marker) func() {
		p := noopPeer(server, m, nil)
		return func() { p.Disconnect(); p.WaitForShutdown() }
	})
	if err != nil {
		return err
	}
	stack, below := e.rec.total("peer.pump"), e.rec.total(connDecode)
	e.out["peer.pump_ns_per_msg"] = stack.nsPerMsg() - below.nsPerMsg()
	e.out["peer.pump_allocs_per_msg"] = stack.allocsPerMsg() - below.allocsPerMsg()

	fabric, l, err := listen()
	if err != nil {
		return err
	}
	defer fabric.Close()
	const conns = slabMsgs
	var connErr error
	start := time.Now()
	e.loop("peer.start_stop", conns, func(i int) int {
		c, a, err := dialAccept(fabric, l, serialIdentity(i))
		if err != nil {
			connErr = err
			return 0
		}
		p := peer.New(a, true, peer.Config{Net: wire.SimNet})
		p.Start()
		p.Disconnect()
		p.WaitForShutdown()
		c.Close()
		return 0
	})
	if connErr != nil {
		return connErr
	}
	t := e.rec.total("peer.start_stop")
	e.out["peer.start_stop_us"] = float64(time.Since(start).Microseconds())/conns - e.out["simnet.dial_accept_us"]
	e.out["peer.alloc_bytes_per_conn"] = float64(t.d.bytes) / conns

	if len(e.replies) == 0 {
		return nil
	}
	fabric2, client, server, err := pair()
	if err != nil {
		return err
	}
	defer fabric2.Close()
	p := peer.New(server, true, peer.Config{Net: wire.SimNet})
	p.Start()
	defer func() { p.Disconnect(); p.WaitForShutdown() }()
	// The producer runs on credit from the far end, a batch at a time, so
	// that it blocks when the write loop falls behind instead of spinning on
	// a full queue (which would be charged to the peer layer).
	const batch = 256
	credit := make(chan struct{}, 4)
	m := e.rec.newMarker("peer.queue", e.n)
	go func() {
		var hdr [wire.MessageHeaderSize]byte
		for seen := 1; ; seen++ {
			if _, err := io.ReadFull(client, hdr[:]); err != nil {
				return
			}
			n := int64(binary.LittleEndian.Uint32(hdr[16:20]))
			if _, err := io.CopyN(io.Discard, client, n); err != nil {
				return
			}
			m.hit(wire.MessageHeaderSize + int(n))
			if seen%batch == 0 {
				credit <- struct{}{}
			}
		}
	}()
	m.begin()
	for i, left := 0, 3*batch; i < e.n; i++ {
		if left == 0 {
			<-credit
			left = batch
		}
		left--
		if err := p.QueueMessage(e.replies[i%len(e.replies)]); err != nil {
			return fmt.Errorf("probe peer.queue: %w", err)
		}
	}
	if err := m.wait(e.o.deadline); err != nil {
		return err
	}
	// Self time: the stack minus the encoder. The reverse pipe stays in:
	// it is part of what a reply costs and nothing else measures it.
	e.out["peer.queue_ns_per_msg"] = e.rec.total("peer.queue").nsPerMsg() - e.out["wire.encode_ns_per_msg"]
	return nil
}

// probeSwarm: the same no-op peer pumped by the event-loop engine — the
// parity number against peer.pump_ns_per_msg.
func (e *probeEnv) probeSwarm() error {
	eng := swarm.NewEngine(swarm.Config{})
	defer eng.Stop()
	err := e.pipeline("swarm.pump", func(server *simnet.Conn, m *marker) func() {
		p := noopPeer(server, m, eng)
		return p.Disconnect
	})
	if err != nil {
		return err
	}
	e.out["swarm.pump_ns_per_msg"] = e.rec.total("swarm.pump").nsPerMsg() - e.rec.total(connDecode).nsPerMsg()
	return nil
}

// dispatchVariant is one configuration of the dispatch probe.
type dispatchVariant struct {
	probe     string
	telemetry bool
	tracer    bool
	tap       bool
	batched   bool // stage misbehavior and flush every 64, as the swarm does
}

// probeDispatch feeds the workload's messages, already decoded, straight
// into a node's dispatch through a real, handshaken peer whose replies
// nobody reads: once its pipe and queue are full the victim sheds replies at
// the queue, so the figure is dispatch alone and the reply path is
// peer.queue's to measure.
func (e *probeEnv) probeDispatch(dv dispatchVariant) error {
	cfg := node.Config{DisableReconnect: true}
	if e.name == "serial_sybil_durable" {
		// As core.score is probed for this workload: the forensics append
		// is part of the score call, on both sides of the subtraction.
		cfg.Forensics = core.NewLedger(0, 0)
	}
	if dv.telemetry {
		cfg.Telemetry, cfg.Journal = telemetry.NewRegistry(), telemetry.NewJournal(0)
	}
	if dv.tracer {
		cfg.Tracer = trace.New(trace.Config{SampleN: trace.DefaultSampleN})
		cfg.Tracer.Enable()
	}
	if dv.tap {
		cfg.Tap = detect.NewMonitor(detect.DefaultWindow)
	}
	n := node.New(cfg)
	defer n.Stop()
	fabric, l, err := listen()
	if err != nil {
		return err
	}
	defer fabric.Close()
	n.Serve(l)
	conn, err := fabric.Dial(flooderAddr, victimAddr)
	if err != nil {
		return err
	}
	version, verack, err := versionFrames(net.IPv4(10, 0, 9, 1), 4001, uint64(e.o.seed))
	if err != nil {
		return err
	}
	if err := handshake(conn, version, verack); err != nil {
		return err
	}
	id := core.PeerIDFromAddr(flooderAddr)
	var p *peer.Peer
	for p == nil || !p.HandshakeComplete() {
		if time.Now().After(e.o.deadline) {
			return fmt.Errorf("probe %s: handshake never completed", dv.probe)
		}
		p, _ = n.Peer(id)
		runtime.Gosched()
	}
	// Untimed: let the victim learn the transactions the stream's INVs name,
	// then fill the unread reply pipe and queue with PONGs until it sheds.
	for _, tx := range e.warm {
		n.ProcessMessageDirect(p, tx, 0)
	}
	if e.perMsg > 0.1 {
		ping := wire.NewMsgPing(1)
		for i := 0; i < 1<<18 && p.QueueDepth() < 1024; i++ {
			n.ProcessMessageDirect(p, ping, 8)
		}
	}
	var batch *node.MisbehaviorBatch
	if dv.batched {
		batch = n.NewMisbehaviorBatch()
		p.SetMisbehaviorSink(batch)
	}
	e.loop(dv.probe, e.s.count, func(i int) int {
		msg, rawLen := e.msg(i)
		n.ProcessMessageDirect(p, msg, rawLen)
		if batch != nil && i%64 == 63 {
			batch.Flush()
		}
		return wire.MessageHeaderSize + rawLen
	})
	if batch != nil {
		batch.Flush()
	}
	return nil
}

// probeNode: dispatch on a bare node, the overhead of each observability
// layer as the same probe with it on minus bare, and the time from dial to
// a completed handshake.
func (e *probeEnv) probeNode(observed bool) error {
	batched := e.name == "sybil_swarm"
	if err := e.probeDispatch(dispatchVariant{probe: "node.dispatch", batched: batched}); err != nil {
		return err
	}
	bare := e.rec.total("node.dispatch")
	e.out["node.dispatch_ns_per_msg"] = bare.nsPerMsg()
	e.out["node.dispatch_allocs_per_msg"] = bare.allocsPerMsg()
	if observed {
		for _, dv := range []struct {
			metric string
			v      dispatchVariant
		}{
			{"telemetry.dispatch_overhead_ns", dispatchVariant{probe: "node.dispatch+telemetry", telemetry: true}},
			{"trace.dispatch_overhead_ns", dispatchVariant{probe: "node.dispatch+trace", tracer: true}},
			{"detect.on_message_ns", dispatchVariant{probe: "node.dispatch+detect", tap: true}},
		} {
			if err := e.probeDispatch(dv.v); err != nil {
				return err
			}
			e.out[dv.metric] = e.rec.total(dv.v.probe).nsPerMsg() - bare.nsPerMsg()
		}
		e.probeDetectWindow()
	}

	kind := victimFull
	if batched {
		kind = victimSwarm
	}
	v, err := newVictim(victimOptions{kind: kind, identities: slabMsgs})
	if err != nil {
		return err
	}
	defer v.close()
	const conns = 512
	version, verack, err := versionFrames(net.IPv4(10, 1, 0, 0), 4001, uint64(e.o.seed))
	if err != nil {
		return err
	}
	var hsErr error
	var ready time.Duration
	e.loop("node.accept_to_ready", conns, func(i int) int {
		start := time.Now()
		c, err := dialVictim(v.fabric, serialIdentity(i), e.o.deadline)
		if err == nil {
			err = handshake(c, version, verack)
			ready += time.Since(start)
			c.Close()
		}
		if err != nil {
			hsErr = err
		}
		// Untimed: the victim frees the slot before the next dial.
		id := core.PeerIDFromAddr(serialIdentity(i))
		for _, connected := v.node.Peer(id); connected && time.Now().Before(e.o.deadline); _, connected = v.node.Peer(id) {
			runtime.Gosched()
		}
		return 0
	})
	e.out["node.accept_to_ready_us"] = float64(ready.Microseconds()) / conns
	return hsErr
}

// probeDetectWindow: what closing one detection window costs, with the
// workload's command mix in it.
func (e *probeEnv) probeDetectWindow() {
	const windows = 256
	mon := detect.NewMonitor(time.Second)
	at := fixedTime
	per := e.s.count / windows
	if per < 1 {
		per = 1
	}
	var rolls time.Duration
	for w := 0; w < windows; w++ {
		for k := 0; k < per; k++ {
			msg, _ := e.msg((w*per + k) % e.s.count)
			mon.OnMessage(msg.Command(), at)
		}
		at = at.Add(time.Second)
		start := time.Now()
		msg, _ := e.msg(0)
		mon.OnMessage(msg.Command(), at) // crosses the boundary: closes the window
		rolls += time.Since(start)
	}
	e.out["detect.window_us"] = float64(rolls.Nanoseconds()) / 1e3 / windows
}

// probeCore: the score entry points over the Sybil identity sequence, each
// identity taken to the threshold as the workload does.
func (e *probeEnv) probeCore(withLedger bool) {
	cfg := core.Config{}
	if withLedger {
		cfg.Forensics = core.NewLedger(0, 0)
	}
	perID := core.DefaultBanThreshold
	ops := e.n
	id := func(i int) core.PeerID { return e.ids[(i/perID)%len(e.ids)] }
	evidence := e.evidence()

	tr := core.NewTracker(cfg)
	e.loop("core.score", ops, func(i int) int {
		tr.MisbehavingCtx(id(i), true, core.VersionDuplicate, evidence)
		return 0
	})
	t := e.rec.total("core.score")
	e.out["core.score_ns_per_op"] = t.nsPerMsg()
	e.out["core.score_allocs_per_op"] = t.allocsPerMsg()

	tr = core.NewTracker(cfg)
	batch := tr.NewBatch()
	e.loop("core.batch", ops, func(i int) int {
		batch.Add(id(i), true, core.VersionDuplicate, evidence)
		if i%64 == 63 {
			batch.Flush(nil)
		}
		return 0
	})
	batch.Flush(nil)
	e.out["core.batch_ns_per_op"] = e.rec.total("core.batch").nsPerMsg()

	// Forget and the ban-list lookup are once-per-connection costs; probe
	// them against a tracker holding a score, and a list holding 40,000
	// bans, as a victim late in the Sybil workloads does.
	tr = core.NewTracker(core.Config{})
	const conns = 8 * slabMsgs
	for i := 0; i < conns; i++ {
		tr.MisbehavingCtx(e.ids[i%len(e.ids)], true, core.VersionDuplicate, evidence)
	}
	e.loop("core.forget", conns, func(i int) int {
		tr.Forget(e.ids[i%len(e.ids)])
		return 0
	})
	e.out["core.forget_ns_per_op"] = e.rec.total("core.forget").nsPerMsg()

	const bans = 40_000
	bl := core.NewBanList(nil)
	banned := make([]core.PeerID, bans)
	for i := range banned {
		banned[i] = core.PeerIDFromAddr(swarmIdentity(i))
		bl.Ban(banned[i], time.Hour)
	}
	e.loop("core.banlist_lookup", conns, func(i int) int {
		_ = bl.IsBanned(banned[i%bans])
		return 0
	})
	e.out["core.banlist_lookup_ns"] = e.rec.total("core.banlist_lookup").nsPerMsg()

	if withLedger {
		ledger := core.NewLedger(0, 0)
		rec := core.BanRecord{Rule: "VersionDuplicate", RuleID: core.VersionDuplicate, Delta: 1,
			Command: evidence.Command, PayloadDigest: evidence.PayloadDigest, PayloadLen: evidence.PayloadLen, At: fixedTime}
		e.loop("core.ledger_append", ops, func(i int) int {
			rec.Peer, rec.Score = id(i), i%perID+1
			ledger.Append(rec)
			return 0
		})
		e.out["core.ledger_append_ns"] = e.rec.total("core.ledger_append").nsPerMsg()
	}
}

// probeReputation: Penalize with the weight a real scoring hit produced
// (the probe pays for that hit too and subtracts core.score), and the
// admission verdict per identity.
func (e *probeEnv) probeReputation() {
	perID := core.DefaultBanThreshold
	evidence := e.evidence()
	tr := core.NewTracker(core.Config{})
	eng := reputation.New(reputation.Config{})
	// Written out, not through e.loop: the evidenceflow analyzer follows the
	// Result into Penalize only within one function body.
	runtime.LockOSThread()
	m := e.rec.newMarker("reputation.penalize", e.n)
	m.thread = true
	m.begin()
	for i := 0; i < e.n; i++ {
		id := e.ids[(i/perID)%len(e.ids)]
		res := tr.MisbehavingCtx(id, true, core.VersionDuplicate, evidence)
		eng.Penalize(id, res.Delta)
		m.hit(0)
	}
	runtime.UnlockOSThread()
	tr = core.NewTracker(core.Config{})
	e.loop("reputation.penalize.score", e.n, func(i int) int {
		tr.MisbehavingCtx(e.ids[(i/perID)%len(e.ids)], true, core.VersionDuplicate, evidence)
		return 0
	})
	e.out["reputation.penalize_ns_per_op"] = e.rec.total("reputation.penalize").nsPerMsg() - e.rec.total("reputation.penalize.score").nsPerMsg()

	const conns = 8 * slabMsgs
	e.loop("reputation.admission", conns, func(i int) int {
		eng.Admission(e.ids[i%len(e.ids)])
		return 0
	})
	e.out["reputation.admission_ns_per_op"] = e.rec.total("reputation.admission").nsPerMsg()
}

// probeBanstore: WAL appends at the workload's record shape, a slab at a
// time with a Sync between slabs (timed on its own), so the group-commit
// backlog never sheds. The temporary directory is wherever the sandbox puts
// it: the Sync timings are not a disk measurement.
func (e *probeEnv) probeBanstore() error {
	dir, err := os.MkdirTemp("", tempPrefix+"probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, _, err := banstore.Open(banstore.Options{Dir: dir})
	if err != nil {
		return err
	}
	perID := core.DefaultBanThreshold
	evidence := e.evidence()
	rec := core.BanRecord{Rule: "VersionDuplicate", RuleID: core.VersionDuplicate, Delta: 1,
		Command: evidence.Command, PayloadDigest: evidence.PayloadDigest, PayloadLen: evidence.PayloadLen, At: fixedTime}
	var syncs []time.Duration
	var syncErr error
	m := e.rec.newMarker("banstore.append", e.n)
	m.begin()
	for i := 0; i < e.n; i++ {
		rec.Peer, rec.Score, rec.Seq = e.ids[(i/perID)%len(e.ids)], i%perID+1, uint64(i%perID+1)
		rec.Banned = rec.Score == perID
		store.AppendMisbehavior(rec)
		if rec.Banned {
			store.AppendBan(rec.Peer, fixedTime.Add(core.DefaultBanDuration))
		}
		m.hit(0)
		if i%slabMsgs == slabMsgs-1 {
			start := time.Now()
			if err := store.Sync(); err != nil {
				syncErr = err
			}
			syncs = append(syncs, time.Since(start))
			m.begin() // the Sync is not part of the next slab
		}
	}
	st := store.Status()
	if err := store.Close(); err != nil {
		return err
	}
	if syncErr != nil {
		return syncErr
	}
	if st.Dropped > 0 {
		return fmt.Errorf("probe banstore.append: store shed %d records", st.Dropped)
	}
	e.out["banstore.append_ns_per_rec"] = e.rec.total("banstore.append").nsPerMsg()
	e.out["banstore.sync_ms_p50"] = percentileMicros(syncs, 50) / 1e3
	return nil
}

// probeMempool: acceptance of the workload's own transactions, and the
// lookup an INV costs.
func (e *probeEnv) probeMempool() {
	pool := mempool.New(0)
	n := len(e.txs)
	e.loop("mempool.accept", n, func(i int) int {
		_ = pool.MaybeAcceptTransaction(e.txs[i]) // every tx is distinct and valid; the end-to-end run checks TxAccepted
		return 0
	})
	e.out["mempool.accept_ns_per_tx"] = e.rec.total("mempool.accept").nsPerMsg()
	hashes := pool.Hashes()
	rng := rand.New(rand.NewSource(e.o.seed))
	e.loop("mempool.have", e.n, func(i int) int {
		_ = pool.Have(&hashes[rng.Intn(len(hashes))])
		return 0
	})
	e.out["mempool.have_ns"] = e.rec.total("mempool.have").nsPerMsg()
}

// run executes the probes on the workload's path. Layers off the path keep
// the value 0: idle on this workload.
func (e *probeEnv) run() error {
	steps := []func() error{e.probeSimnet, e.probeWire, e.probeConnDecode}
	sybil := e.name == "sybil_swarm" || e.name == "serial_sybil_durable"
	if e.name == "sybil_swarm" {
		steps = append(steps, e.probeSwarm)
	} else {
		steps = append(steps, e.probePeer)
	}
	if e.name != "bogus_block_flood" {
		observed := e.name != "sybil_swarm"
		steps = append(steps, func() error { return e.probeNode(observed) })
	}
	if sybil {
		durable := e.name == "serial_sybil_durable"
		steps = append(steps, func() error { e.probeCore(durable); return nil })
		if durable {
			steps = append(steps, func() error { e.probeReputation(); return nil }, e.probeBanstore)
		}
	}
	if e.name == "honest_relay" {
		steps = append(steps, func() error { e.probeMempool(); return nil })
	}
	for _, step := range steps {
		runtime.GC()
		if err := step(); err != nil {
			return err
		}
	}
	e.rec.link(map[string]string{
		connDecode:                  e.pumpProbe(),
		"wire.decode":               connDecode,
		"wire.checksum":             "wire.decode",
		"wire.encode":               "peer.queue",
		"core.score":                "node.dispatch",
		"core.batch":                "node.dispatch",
		"core.ledger_append":        "core.score",
		"mempool.accept":            "node.dispatch",
		"mempool.have":              "node.dispatch",
		"reputation.penalize.score": "reputation.penalize",
	})
	return nil
}

func (e *probeEnv) pumpProbe() string {
	if e.name == "sybil_swarm" {
		return "swarm.pump"
	}
	return "peer.pump"
}

// probeMain is the body of a probe child: run the probes, write the trace
// file, print the per-layer values.
func probeMain(workload string, o runOptions, dir string) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "banbench probe %s: %v\n", workload, err)
		return 1
	}
	e, err := newProbeEnv(workload, o)
	if err != nil {
		return fail(err)
	}
	if err := e.run(); err != nil {
		return fail(err)
	}
	path, err := e.rec.write(dir, workload)
	if err != nil {
		return fail(err)
	}
	probes := map[string]bool{}
	for _, sp := range e.rec.spans {
		probes[sp.Probe] = true
	}
	names := make([]string, 0, len(probes))
	for p := range probes {
		names = append(names, p)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "banbench probe %s: %d spans over %d probes (%v) in %s\n", workload, len(e.rec.spans), len(names), names, path)
	res := &childResult{Workload: workload, Seed: o.seed, Units: o.units, Attempted: int64(len(e.rec.spans)), Layer: e.out}
	res.Layer["probe.pipe_under_decode_ns"] = e.rec.total(connDecode).nsPerMsg() - e.out["wire.decode_ns_per_msg"]
	res.Layer["probe.replies_per_msg"] = e.perMsg
	res.Layer["probe.msgs_per_conn"] = e.perConn
	return printResult(res)
}
