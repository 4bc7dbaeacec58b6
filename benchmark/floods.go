package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"banscore/internal/core"
	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// client is one generator-side connection to the victim, handshaken, with
// its replies drained.
type client struct {
	conn       *simnet.Conn
	id         core.PeerID
	drain      *drain
	seq        uint64 // sentinel sequence
	emptySpace int    // what conn.WriteSpace reports when nothing is buffered
}

// connect dials the victim from addr, completes the handshake, starts the
// reply drain and makes one sentinel round trip, so that the victim has
// processed the VERACK before the first measured frame.
func connect(v *victim, addr string, nonce uint64, deadline time.Time) (*client, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, err
	}
	version, verack, err := versionFrames(net.ParseIP(host), 4001, nonce)
	if err != nil {
		return nil, err
	}
	conn, err := v.fabric.Dial(addr, victimAddr)
	if err != nil {
		return nil, fmt.Errorf("dial from %s: %w", addr, err)
	}
	emptySpace, _ := conn.WriteSpace()
	if err := handshake(conn, version, verack); err != nil {
		conn.Close()
		return nil, fmt.Errorf("handshake from %s: %w", addr, err)
	}
	c := &client{conn: conn, id: core.PeerIDFromAddr(addr), drain: startDrain(conn), emptySpace: emptySpace}
	if _, _, err := c.sync(deadline); err != nil {
		c.close()
		return nil, fmt.Errorf("first sentinel from %s: %w", addr, err)
	}
	return c, nil
}

// sync writes a sentinel and waits for its PONG.
func (c *client) sync(deadline time.Time) (time.Time, int, error) {
	return awaitSentinel(c, deadline)
}

func (c *client) close() {
	c.conn.Close()
	<-c.drain.done
}

// Generator addresses: one flooder (or honest peer), one second connection.
const (
	flooderAddr = "10.0.9.1:4001"
	secondAddr  = "10.0.9.2:4001"
)

// mustStayInnocent applies the Table I outcome of a score-free workload to
// one peer: score 0, not banned, still connected.
func mustStayInnocent(res *childResult, v *victim, id core.PeerID, who string) {
	if s := v.node.Tracker().Score(id); s != 0 {
		res.failAll("%s scored %d on a score-free workload", who, s)
	}
	if v.node.Tracker().IsBanned(id) {
		res.failAll("%s was banned on a score-free workload", who)
	}
	if _, ok := v.node.Peer(id); !ok {
		res.failAll("%s was disconnected on a score-free workload", who)
	}
}

// mustAccountFor applies "every frame written is accounted for at the
// sentinel": the victim dispatched exactly the frames the generator wrote.
func mustAccountFor(res *childResult, dispatched, written uint64) {
	if dispatched < written {
		res.fail(int64(written-dispatched), "victim dispatched %d of %d frames", dispatched, written)
	} else if dispatched > written {
		res.failAll("victim dispatched %d frames, %d were written", dispatched, written)
	}
}

// floodResult is what one flood over one connection measured.
type floodResult struct {
	win       window
	sentinels int
	processed uint64 // victim's MessagesProcessed over the window
}

// flood writes the stream to the victim over c inside a measured window:
// first byte written to sentinel PONG. between runs after the last frame is
// acknowledged and before the victim's counters are read (the ping prober
// stops there).
func flood(v *victim, c *client, s *stream, deadline time.Time, between func()) (floodResult, error) {
	var fr floodResult
	base := v.node.Stats().MessagesProcessed
	start, setup := beginWindow()
	if _, err := s.write(c.conn, 0, s.count, make([]byte, 0, 64<<10)); err != nil {
		return fr, fmt.Errorf("write flood: %w", err)
	}
	end, sentinels, err := c.sync(deadline)
	if err != nil {
		return fr, err
	}
	stop := readCounters()
	stop.wall = end
	if between != nil {
		between()
	}
	fr.sentinels = sentinels
	fr.processed = v.node.Stats().MessagesProcessed - base
	fr.win = window{
		setup: setup,
		d:     stop.since(start),
		msgs:  int64(s.count + sentinels),
		bytes: s.wireBytes(0, s.count) + int64(sentinels)*32,
	}
	return fr, nil
}

// prober is the honest second connection of ping_flood: PING at 200/s on a
// fixed schedule (an open loop), each PONG timed from the moment its PING
// was due, so a stall is charged to every request it delays.
type prober struct {
	rtts []time.Duration
	late time.Duration // how far the generator ran behind its schedule, at worst
	sent int
	stop chan struct{}
	done chan struct{}
	err  error
}

const probePeriod = 5 * time.Millisecond // 200/s

func startProber(conn net.Conn) *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan struct{})}
	go p.run(conn)
	return p
}

// probeOnce makes one PING round trip and returns its PONG's nonce.
func probeOnce(conn net.Conn, nonce uint64) (uint64, error) {
	var reply [wire.MessageHeaderSize + 8]byte
	frame, err := encodeFrame(wire.NewMsgPing(nonce))
	if err != nil {
		return 0, err
	}
	if _, err := conn.Write(frame); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(reply[wire.MessageHeaderSize:]), nil
}

func (p *prober) run(conn net.Conn) {
	defer close(p.done)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * probePeriod)
		timer.Reset(time.Until(due))
		select {
		case <-p.stop:
			return
		case <-timer.C:
		}
		select {
		case <-p.stop:
			return
		default:
		}
		if l := time.Since(due); l > p.late {
			p.late = l
		}
		got, err := probeOnce(conn, uint64(i))
		if err == nil && got != uint64(i) {
			err = fmt.Errorf("PONG nonce %d for PING %d", got, i)
		}
		if err != nil {
			p.err = err
			return
		}
		p.sent++
		p.rtts = append(p.rtts, time.Since(due))
	}
}

func (p *prober) finish() {
	close(p.stop)
	<-p.done
}

// runPingFlood: one flooder connection writes identical 32-byte PING frames;
// a second, honest connection probes the victim's responsiveness.
func runPingFlood(o runOptions) (*childResult, error) {
	s, err := pingStream(o.seed, o.units)
	if err != nil {
		return nil, err
	}
	v, err := newVictim(victimOptions{kind: victimFull, mode: o.mode})
	if err != nil {
		return nil, err
	}
	defer v.close()
	rng := rand.New(rand.NewSource(o.seed + 1))
	flooder, err := connect(v, flooderAddr, rng.Uint64(), o.deadline)
	if err != nil {
		return nil, err
	}
	defer flooder.close()

	// The prober reads its own replies, so it is handshaken by hand.
	probeConn, err := v.fabric.Dial(secondAddr, victimAddr)
	if err != nil {
		return nil, err
	}
	defer probeConn.Close()
	version, verack, err := versionFrames(net.IPv4(10, 0, 9, 2), 4001, rng.Uint64())
	if err != nil {
		return nil, err
	}
	if err := handshake(probeConn, version, verack); err != nil {
		return nil, err
	}
	// One round trip before the count is based: the VERACK is behind it.
	if _, err := probeOnce(probeConn, sentinelTag); err != nil {
		return nil, fmt.Errorf("honest prober: %w", err)
	}
	probeID := core.PeerIDFromAddr(secondAddr)

	base := v.node.Stats().MessagesProcessed
	probe := startProber(probeConn)
	fr, err := flood(v, flooder, s, o.deadline, probe.finish)
	if err != nil {
		probe.finish()
		return nil, err
	}
	processed := v.node.Stats().MessagesProcessed - base

	res := newResult(int64(s.count + fr.sentinels))
	fr.win.record(res)
	res.Layer["node.reply_share"] = float64(flooder.drain.pongs.Load()) / float64(s.count)
	res.Layer["node.honest_rtt_us_p50"] = percentileMicros(probe.rtts, 50)
	res.Layer["node.honest_rtt_us_p99"] = percentileMicros(probe.rtts, 99)
	res.Layer["node.honest_probe_late_us"] = float64(probe.late.Nanoseconds()) / 1e3

	if probe.err != nil {
		res.failAll("honest prober: %v", probe.err)
	}
	mustAccountFor(res, processed, uint64(s.count+fr.sentinels+probe.sent))
	mustStayInnocent(res, v, flooder.id, "flooder")
	mustStayInnocent(res, v, probeID, "honest prober")
	if st := v.node.Stats(); st.BlocksAccepted != 0 || st.TxAccepted != 0 {
		res.failAll("blocks accepted %d, txs accepted %d on a PING flood", st.BlocksAccepted, st.TxAccepted)
	}
	return res, nil
}

// runBogusBlockFlood: one connection writes 1 MB BLOCK frames with a wrong
// header checksum; every one must be dropped at the checksum, unscored.
func runBogusBlockFlood(o runOptions) (*childResult, error) {
	s, err := blockStream(o.seed, o.units)
	if err != nil {
		return nil, err
	}
	v, err := newVictim(victimOptions{kind: victimFull, mode: o.mode})
	if err != nil {
		return nil, err
	}
	defer v.close()
	flooder, err := connect(v, flooderAddr, uint64(o.seed), o.deadline)
	if err != nil {
		return nil, err
	}
	defer flooder.close()
	p, ok := v.node.Peer(flooder.id)
	if !ok {
		return nil, fmt.Errorf("victim does not know the flooder")
	}
	baseBytes := p.BytesReceived()

	fr, err := flood(v, flooder, s, o.deadline, nil)
	if err != nil {
		return nil, err
	}

	res := newResult(int64(s.count + fr.sentinels))
	fr.win.record(res)
	res.Layer["node.reply_share"] = 1 // only sentinels are answered, and one was

	// A frame dropped at the checksum adds its header to the peer's byte
	// count and nothing else; a sentinel adds its 32 bytes.
	got := p.BytesReceived() - baseBytes
	want := uint64(s.count)*wire.MessageHeaderSize + uint64(fr.sentinels)*32
	if got != want {
		res.failAll("victim accounted %d bytes for %d checksum drops, want %d", got, s.count, want)
	}
	if fr.processed != uint64(fr.sentinels) {
		res.failAll("victim dispatched %d messages; only the %d sentinels may pass the checksum", fr.processed, fr.sentinels)
	}
	mustStayInnocent(res, v, flooder.id, "flooder")
	if st := v.node.Stats(); st.BlocksAccepted != 0 || st.TxAccepted != 0 {
		res.failAll("blocks accepted %d, txs accepted %d on a bogus-BLOCK flood", st.BlocksAccepted, st.TxAccepted)
	}
	return res, nil
}

// runHonestRelay: one honest connection writes the seeded message mix; a
// second, idle but handshaken connection gives the victim someone to relay
// accepted transactions to.
func runHonestRelay(o runOptions) (*childResult, error) {
	in, err := newHonestInputs(o.seed, o.units)
	if err != nil {
		return nil, err
	}
	v, err := newVictim(victimOptions{kind: victimFull, mode: o.mode})
	if err != nil {
		return nil, err
	}
	defer v.close()
	rng := rand.New(rand.NewSource(o.seed + 1))
	honest, err := connect(v, flooderAddr, rng.Uint64(), o.deadline)
	if err != nil {
		return nil, err
	}
	defer honest.close()
	sink, err := connect(v, secondAddr, rng.Uint64(), o.deadline)
	if err != nil {
		return nil, err
	}
	defer sink.close()

	// Set-up: the transactions every INV and GETDATA of the stream names.
	if _, err := in.preload.write(honest.conn, 0, in.preload.count, nil); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if _, _, err := honest.sync(o.deadline); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}

	fr, err := flood(v, honest, in.stream, o.deadline, nil)
	if err != nil {
		return nil, err
	}

	res := newResult(int64(in.stream.count + fr.sentinels))
	fr.win.record(res)
	pings := 0
	for _, idx := range in.stream.sched {
		if len(in.stream.table[idx]) == wire.MessageHeaderSize+8 && frameCommand(in.stream.table[idx]) == wire.CmdPing {
			pings++
		}
	}
	if pings > 0 {
		res.Layer["node.reply_share"] = float64(honest.drain.pongs.Load()) / float64(pings)
	}

	mustAccountFor(res, fr.processed, uint64(in.stream.count+fr.sentinels))
	mustStayInnocent(res, v, honest.id, "honest peer")
	mustStayInnocent(res, v, sink.id, "relay sink")
	st := v.node.Stats()
	if st.BlocksAccepted != 0 {
		res.failAll("blocks accepted %d on honest relay", st.BlocksAccepted)
	}
	if st.TxAccepted != uint64(in.accepts) {
		res.failAll("txs accepted %d, want %d", st.TxAccepted, in.accepts)
	}
	return res, nil
}
