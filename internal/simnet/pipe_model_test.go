package simnet

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"
)

// modelHalf is the slice-queue pipeHalf used before the ring, kept as the
// reference the ring is checked against. It never blocks: where the real
// half would park, it reports ErrDeadlineExceeded, which is what the real
// half does under an already-expired deadline.
type modelHalf struct {
	buf      []byte
	seq      uint64
	closed   bool
	closeErr error
	// data and room count the onData / onRoom edges the half must fire.
	data, room int
}

func (m *modelHalf) writeErr() error {
	if m.closeErr != nil {
		return m.closeErr
	}
	return io.ErrClosedPipe
}

func (m *modelHalf) write(p []byte) (int, error) {
	switch {
	case m.closed:
		return 0, m.writeErr()
	case len(m.buf) >= pipeBufferCap:
		return 0, ErrDeadlineExceeded
	}
	m.buf = append(m.buf, p...)
	m.seq += uint64(len(p))
	m.data++
	return len(p), nil
}

func (m *modelHalf) inject(seq uint64, p []byte) error {
	switch {
	case m.closed:
		return m.writeErr()
	case m.seq != seq, len(m.buf) >= pipeBufferCap:
		return ErrSeqMismatch
	}
	_, err := m.write(p)
	return err
}

func (m *modelHalf) read(p []byte) (int, error) {
	switch {
	case len(m.buf) > 0:
		n := copy(p, m.buf)
		m.buf = m.buf[n:]
		m.room++
		return n, nil
	case m.closeErr != nil:
		return 0, m.closeErr
	case m.closed:
		return 0, io.EOF
	}
	return 0, ErrDeadlineExceeded
}

func (m *modelHalf) close(err error, discard bool) {
	if m.closed {
		return
	}
	m.closed, m.closeErr = true, err
	if discard {
		m.buf = nil
	}
	m.data++
	m.room++
}

// streamTable holds one period of the byte pattern every writer lays along
// the stream: the byte at stream offset off is streamTable[off%len], so a
// byte that comes out misplaced is wrong on its face, not only against the
// model. The period is prime, so no buffer size or frame size aligns with it.
var streamTable = func() []byte {
	t := make([]byte, 65521)
	rand.New(rand.NewSource(42)).Read(t)
	return t
}()

// fillStream writes the pattern bytes starting at stream offset off into p.
func fillStream(p []byte, off uint64) {
	at := int(off % uint64(len(streamTable)))
	for done := 0; done < len(p); at = 0 {
		done += copy(p[done:], streamTable[at:])
	}
}

// isStream reports whether p holds the pattern bytes starting at off.
func isStream(p []byte, off uint64) bool {
	at := int(off % uint64(len(streamTable)))
	for len(p) > 0 {
		k := min(len(p), len(streamTable)-at)
		if !bytes.Equal(p[:k], streamTable[at:at+k]) {
			return false
		}
		p, at = p[k:], 0
	}
	return true
}

// opSize decodes an operation's byte count from its three argument bytes:
// four scales, so one op stream mixes header-sized, frame-sized and
// larger-than-cap transfers (0 … 6 MB).
func opSize(a, b, c byte) int {
	v := int(b)<<8 | int(c)
	switch a % 4 {
	case 0:
		return int(b)
	case 1:
		return v
	case 2:
		return v * 32
	}
	return v * 96
}

// pipeDriver runs one op stream against a ring half and the model.
type pipeDriver struct {
	t          testing.TB
	h          *pipeHalf
	m          *modelHalf
	data, room int
	wrapped    int // writes that left the backlog wrapped past the end
	overshot   int // writes that left more than pipeBufferCap buffered
	src        []byte
}

// payload returns size pattern bytes for stream offset off, in a scratch
// buffer valid until the next call.
func (d *pipeDriver) payload(off uint64, size int) []byte {
	if cap(d.src) < size {
		d.src = make([]byte, size)
	}
	p := d.src[:size]
	fillStream(p, off)
	return p
}

func (d *pipeDriver) fresh() {
	d.h, d.m = newPipeHalf(), &modelHalf{}
	d.data, d.room = 0, 0
	d.h.setOnData(func() { d.data++ })
	d.h.setOnRoom(func() { d.room++ })
	// Expired deadlines turn every would-block into an immediate error.
	past := time.Unix(1, 0)
	d.h.setReadDeadline(past)
	d.h.setWriteDeadline(past)
}

// check compares every observable of the two halves.
func (d *pipeDriver) check(op string) {
	d.t.Helper()
	n, closed := d.h.buffered()
	space, _ := d.h.space()
	wantSpace := max(pipeBufferCap-len(d.m.buf), 0)
	if n != len(d.m.buf) || closed != d.m.closed || space != wantSpace || d.h.sequence() != d.m.seq {
		d.t.Fatalf("%s: ring buffered=%d closed=%v space=%d seq=%d, model buffered=%d closed=%v space=%d seq=%d",
			op, n, closed, space, d.h.sequence(), len(d.m.buf), d.m.closed, wantSpace, d.m.seq)
	}
	if d.data != d.m.data || d.room != d.m.room {
		d.t.Fatalf("%s: ring fired onData=%d onRoom=%d, model %d/%d", op, d.data, d.room, d.m.data, d.m.room)
	}
	if d.h.n == 0 && d.h.head != 0 {
		d.t.Fatalf("%s: empty ring left head at %d", op, d.h.head)
	}
}

func (d *pipeDriver) sameErr(op string, got, want error) {
	d.t.Helper()
	if (got == nil) != (want == nil) || (want != nil && !errors.Is(got, want)) {
		d.t.Fatalf("%s: ring err %v, model err %v", op, got, want)
	}
}

// run interprets ops four bytes at a time: opcode, then three size bytes.
func (d *pipeDriver) run(ops []byte) {
	d.fresh()
	var out, want []byte
	for ; len(ops) >= 4; ops = ops[4:] {
		code, a, b, c := ops[0]%16, ops[1], ops[2], ops[3]
		size := opSize(a, b, c)
		switch {
		case code < 6: // write
			p := d.payload(d.m.seq, size)
			gn, gerr := d.h.write(p)
			wn, werr := d.m.write(p)
			d.sameErr("write", gerr, werr)
			if gn != wn {
				d.t.Fatalf("write(%d): ring n=%d, model n=%d", size, gn, wn)
			}
			if d.h.head+d.h.n > len(d.h.buf) {
				d.wrapped++
			}
			if d.h.n > pipeBufferCap {
				d.overshot++
			}
		case code <= 11: // read, or (11) peek
			if size == 0 {
				size = 1
			}
			if size > 2<<20 {
				size = 2 << 20
			}
			if cap(out) < size {
				out, want = make([]byte, size), make([]byte, size)
			}
			out, want = out[:size], want[:size]
			if code == 11 {
				gn := d.h.peek(out)
				wn := copy(want, d.m.buf)
				if gn != wn || !bytes.Equal(out[:gn], want[:wn]) {
					d.t.Fatalf("peek(%d): ring n=%d, model n=%d, bytes equal=%v", size, gn, wn, bytes.Equal(out[:gn], want[:wn]))
				}
				break
			}
			off := d.m.seq - uint64(len(d.m.buf))
			gn, gerr := d.h.read(out)
			wn, werr := d.m.read(want)
			d.sameErr("read", gerr, werr)
			if gn != wn || !bytes.Equal(out[:gn], want[:wn]) {
				d.t.Fatalf("read(%d): ring n=%d, model n=%d, bytes equal=%v", size, gn, wn, bytes.Equal(out[:gn], want[:wn]))
			}
			if !isStream(out[:gn], off) {
				d.t.Fatalf("read(%d): bytes at stream offset %d are not the pattern's", size, off)
			}
		case code == 12: // inject, at the right offset or (a's top bit) one short of it
			seq := d.m.seq
			if a&0x80 != 0 {
				seq--
			}
			p := d.payload(seq, size%4096)
			d.sameErr("inject", d.h.inject(seq, p), d.m.inject(seq, p))
		case code == 13 && c%4 == 0: // graceful close
			d.h.close()
			d.m.close(nil, false)
		case code == 14 && c%4 == 0: // reset, discarding the backlog
			d.h.closeWithErr(ErrConnReset, true)
			d.m.close(ErrConnReset, true)
		default: // a closed and drained half has nothing left to show
			if d.m.closed && len(d.m.buf) == 0 {
				d.check("before replace")
				d.fresh()
			}
		}
		d.check("op")
	}
}

// TestPipeHalfMatchesModel drives the ring and the old slice-queue through
// identical seeded op sequences and requires identical bytes, seq, return
// values and callback edges — including writes that wrap and whole-write
// overshoots, which the sequences must actually have produced.
func TestPipeHalfMatchesModel(t *testing.T) {
	nOps := 600
	if testing.Short() {
		nOps = 150
	}
	d := &pipeDriver{t: t}
	for seed := int64(1); seed <= 3; seed++ {
		ops := make([]byte, 4*nOps)
		rand.New(rand.NewSource(seed)).Read(ops)
		d.run(ops)
	}
	t.Logf("%d wrapped writes, %d overshooting writes", d.wrapped, d.overshot)
	if d.wrapped == 0 || d.overshot == 0 {
		t.Fatalf("op sequences covered %d wrapped and %d overshooting writes; want both > 0", d.wrapped, d.overshot)
	}
}

// FuzzPipeHalf exposes the same driver to the fuzzer. The committed corpus
// (testdata/fuzz/FuzzPipeHalf) holds one hand-written sequence per edge:
// wrap, overshoot, inject at and off the offset, close and reset.
func FuzzPipeHalf(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4*256 {
			ops = ops[:4*256]
		}
		(&pipeDriver{t: t}).run(ops)
	})
}
