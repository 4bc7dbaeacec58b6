package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"banscore/internal/stats"
	"banscore/internal/wire"
)

// processStart is taken as early as the program can: setup_s runs from here
// to the start of the measured window.
var processStart = time.Now()

// cpuTime is the process's user+system CPU so far (getrusage). The sum is
// what the scheduler accounted, exact to the nanosecond; only the split
// between the two is tick-sampled, and the benchmark never uses the split.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the calling thread's CPU so far (Linux RUSAGE_THREAD). A
// single-goroutine probe locks itself to its thread and reads this, which
// leaves out what the runtime does on other threads meanwhile: with a core
// idle, background and idle-priority GC workers double a probe's process CPU.
func threadCPUTime() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is one reading of everything a window or a span is measured by.
// It is read through runtime/metrics, which does not stop the world, so a
// probe can afford one reading per 4,096-message slab.
type counters struct {
	wall     time.Time
	cpu      time.Duration
	mallocs  uint64 // heap objects allocated, tiny allocations included (MemStats.Mallocs)
	bytes    uint64 // heap bytes allocated (MemStats.TotalAlloc)
	gcCPU    float64
	gcCycles uint64
}

var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readCounters() counters {
	var s [5]metrics.Sample
	for i, name := range counterNames {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return counters{
		wall:     time.Now(),
		cpu:      cpuTime(),
		mallocs:  s[0].Value.Uint64() + s[1].Value.Uint64(),
		bytes:    s[2].Value.Uint64(),
		gcCPU:    s[3].Value.Float64(),
		gcCycles: s[4].Value.Uint64(),
	}
}

// delta is the difference of two readings.
type delta struct {
	wall     time.Duration
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCPU    float64
	gcCycles uint64
}

func (c counters) since(start counters) delta {
	return delta{
		wall:     c.wall.Sub(start.wall),
		cpu:      c.cpu - start.cpu,
		mallocs:  c.mallocs - start.mallocs,
		bytes:    c.bytes - start.bytes,
		gcCPU:    c.gcCPU - start.gcCPU,
		gcCycles: c.gcCycles - start.gcCycles,
	}
}

// median of v (0 when empty).
func median(v []float64) float64 { return stats.Percentile(v, 50) }

// percentileMicros returns the p-th percentile (0..100) of durations, in µs.
func percentileMicros(d []time.Duration, p float64) float64 {
	us := make([]float64, len(d))
	for i, x := range d {
		us[i] = float64(x.Nanoseconds()) / 1e3
	}
	return stats.Percentile(us, p)
}

// encodeFrame returns msg as one framed wire message, copied out of the
// pooled encoder buffer.
func encodeFrame(msg wire.Message) ([]byte, error) {
	buf, err := wire.EncodeMessage(msg, wire.ProtocolVersion, wire.SimNet)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", msg.Command(), err)
	}
	frame := append([]byte(nil), buf.Bytes()...)
	buf.Release()
	return frame, nil
}

// frameCommand returns the command of the header at the start of b.
func frameCommand(hdr []byte) string {
	cmd := hdr[4 : 4+wire.CommandSize]
	for i, c := range cmd {
		if c == 0 {
			return string(cmd[:i])
		}
	}
	return string(cmd)
}

// sentinelTag marks the nonce of a sentinel PING in its top 16 bits. A
// sentinel is written after the last frame of a window; its PONG proves the
// victim consumed every earlier frame on that connection, so completion is
// detected in-band, without polling a counter inside the window.
const sentinelTag = uint64(0x5e17) << 48

func isSentinel(nonce uint64) bool { return nonce>>48 == sentinelTag>>48 }

// drain reads the victim's replies off one connection: it counts frames and
// PONGs without decoding them and reports the arrival time of each sentinel
// PONG. It is generator-side work and is kept to a header parse per frame.
type drain struct {
	frames   atomic.Uint64
	pongs    atomic.Uint64
	sentinel chan sentinelPong // buffered: one slot per sentinel in flight
	done     chan struct{}
}

// sentinelPong is one sentinel's answer: which sentinel, and when.
type sentinelPong struct {
	seq uint64
	at  time.Time
}

func startDrain(conn net.Conn) *drain {
	d := &drain{sentinel: make(chan sentinelPong, 64), done: make(chan struct{})}
	go d.run(conn)
	return d
}

func (d *drain) run(conn net.Conn) {
	defer close(d.done)
	br := bufio.NewReaderSize(conn, 64<<10)
	var hdr [wire.MessageHeaderSize]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[16:20]))
		d.frames.Add(1)
		if n == 8 && frameCommand(hdr[:]) == wire.CmdPong {
			var p [8]byte
			if _, err := io.ReadFull(br, p[:]); err != nil {
				return
			}
			if nonce := binary.LittleEndian.Uint64(p[:]); isSentinel(nonce) {
				select {
				case d.sentinel <- sentinelPong{seq: nonce &^ sentinelTag, at: time.Now()}:
				default:
				}
			} else {
				d.pongs.Add(1)
			}
			continue
		}
		if _, err := br.Discard(n); err != nil {
			return
		}
	}
}

// errSentinelLost reports that no sentinel PONG came back before the
// child's deadline: frames written before it are unaccounted for.
var errSentinelLost = errors.New("sentinel PONG never arrived")

// awaitSentinel writes a sentinel PING and returns the arrival time of its
// PONG. One sentinel is enough unless the victim's reply queue was full when
// it was dispatched (a PING flood keeps it full), in which case the PONG is
// shed like any other reply. That case is recognised from outside: the send
// buffer is empty, so the victim has read the sentinel, and no reply has
// arrived for two ticks. The victim is idle then, and the next sentinel is
// answered at once; the measured end moves by those few milliseconds. While
// the victim is still working through the flood nothing is resent, and the
// tick costs it one uncontended lock per millisecond. The time returned is
// that of the first answer; the call returns once the last sentinel written
// is answered as well, so that none is in flight when the caller reads the
// victim's counters.
func awaitSentinel(c *client, deadline time.Time) (at time.Time, sent int, err error) {
	write := func() error {
		c.seq++
		frame, err := encodeFrame(wire.NewMsgPing(sentinelTag | c.seq))
		if err != nil {
			return err
		}
		sent++
		_, err = c.conn.Write(frame)
		return err
	}
	first := c.seq + 1
	if err := write(); err != nil {
		return time.Time{}, sent, fmt.Errorf("write sentinel: %w", err)
	}
	ticker := time.NewTicker(time.Millisecond)
	defer ticker.Stop()
	idle, last := 0, c.drain.frames.Load()
	for {
		select {
		case pong := <-c.drain.sentinel:
			if pong.seq < first {
				continue // a late answer to a resent sentinel of an earlier wait
			}
			if at.IsZero() {
				at = pong.at // the flood ends at the first answer
			}
			if pong.seq == c.seq {
				return at, sent, nil
			}
			// A resent sentinel is still in flight: the caller reads the
			// victim's counters next, so wait until it is dispatched too.
		case <-c.drain.done:
			return time.Time{}, sent, fmt.Errorf("%w: connection closed", errSentinelLost)
		case now := <-ticker.C:
			if now.After(deadline) {
				return time.Time{}, sent, errSentinelLost
			}
			if !at.IsZero() {
				continue // the reply queue has drained: nothing sent since can be shed
			}
			frames := c.drain.frames.Load()
			space, _ := c.conn.WriteSpace()
			if frames == last && space >= c.emptySpace {
				idle++
			} else {
				idle = 0
			}
			last = frames
			if idle >= 2 {
				idle = 0
				if err := write(); err != nil {
					return time.Time{}, sent, fmt.Errorf("write sentinel: %w", err)
				}
			}
		}
	}
}

// versionFrames returns the VERSION and VERACK frames an identity at addr
// sends; nonce makes the VERSION differ between seeds.
func versionFrames(ip net.IP, port uint16, nonce uint64) (version, verack []byte, err error) {
	me := wire.NewNetAddressIPPort(ip, port, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4(10, 0, 0, 1), 8333, wire.SFNodeNetwork)
	v := wire.NewMsgVersion(me, you, nonce, 0)
	v.Timestamp = fixedTime
	if version, err = encodeFrame(v); err != nil {
		return nil, nil, err
	}
	verack, err = encodeFrame(&wire.MsgVerAck{})
	return version, verack, err
}

// handshake completes VERSION/VERACK from the client side over conn, reading
// the victim's replies by header only.
func handshake(conn net.Conn, version, verack []byte) error {
	if _, err := conn.Write(version); err != nil {
		return fmt.Errorf("write version: %w", err)
	}
	var hdr [wire.MessageHeaderSize]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return fmt.Errorf("read handshake reply: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[16:20]))
		if _, err := io.CopyN(io.Discard, conn, n); err != nil {
			return fmt.Errorf("read handshake reply: %w", err)
		}
		if frameCommand(hdr[:]) == wire.CmdVerAck {
			break
		}
	}
	if _, err := conn.Write(verack); err != nil {
		return fmt.Errorf("write verack: %w", err)
	}
	return nil
}
