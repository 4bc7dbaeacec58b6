package simnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"banscore/internal/telemetry"
)

// drainFrame reads one frame the way the wire decoder does: the 24-byte
// header first, then the rest.
func drainFrame(h *pipeHalf, scratch []byte) {
	for left := len(scratch); left > 0; {
		k := left
		if left == len(scratch) && k > 24 {
			k = 24
		}
		n, err := h.read(scratch[:k])
		if err != nil {
			panic(err)
		}
		left -= n
	}
}

// TestPipeSteadyStateAllocatesNothing: a writer/reader pair at a fixed
// frame size never touches the allocator once warm — whether the reader
// drains every frame, catches up to empty after a three-frame burst (the
// flooder's reader that momentarily keeps pace), or stays two frames behind
// so the backlog wraps.
func TestPipeSteadyStateAllocatesNothing(t *testing.T) {
	shapes := []struct {
		name         string
		ahead, burst int
	}{
		{"drained each frame", 0, 1},
		{"drained after a burst of 3", 0, 3},
		{"two frames behind", 2, 1},
	}
	for _, size := range []int{32, 125, 1_000_024} {
		for _, s := range shapes {
			h := newPipeHalf()
			frame, scratch := make([]byte, size), make([]byte, size)
			for i := 0; i < s.ahead; i++ {
				h.write(frame)
			}
			round := func() {
				for i := 0; i < s.burst; i++ {
					h.write(frame)
				}
				for i := 0; i < s.burst; i++ {
					drainFrame(h, scratch)
				}
			}
			round() // settles the ring at its working capacity
			if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
				t.Errorf("frame=%d, %s: %v allocs per round, want 0", size, s.name, allocs)
			}
		}
	}
}

// TestPipeDrainedFloodReleasesBuffer: a backlog that grew to the cap is
// handed back once drained, while a frame-sized working buffer is kept.
func TestPipeDrainedFloodReleasesBuffer(t *testing.T) {
	h := newPipeHalf()
	chunk := make([]byte, 1<<20)
	for i := 0; i < 4; i++ {
		if _, err := h.write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := h.buffered(); n != pipeBufferCap {
		t.Fatalf("buffered %d, want %d", n, pipeBufferCap)
	}
	for n, _ := h.buffered(); n > 0; n, _ = h.buffered() {
		if _, err := h.read(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if h.buf != nil {
		t.Fatalf("drained flood still pins a %d-byte array", len(h.buf))
	}
	if s, _ := h.space(); s != pipeBufferCap {
		t.Fatalf("space on the drained half = %d, want %d", s, pipeBufferCap)
	}

	small := make([]byte, 125)
	h.write(small)
	h.read(small)
	if len(h.buf) != len(small) {
		t.Fatalf("drained %d-byte frame left a %d-byte array, want it kept", len(small), len(h.buf))
	}
}

// fillToCap writes frames into h until the next write would block.
func fillToCap(h *pipeHalf, frame []byte) {
	for n, _ := h.buffered(); n < pipeBufferCap; n, _ = h.buffered() {
		if _, err := h.write(frame); err != nil {
			panic(err)
		}
	}
}

// parkWriter starts a write of frame into the full half h and returns once
// that writer is parked waiting for room; done closes when the write
// returns.
func parkWriter(h *pipeHalf, frame []byte) chan struct{} {
	done := make(chan struct{})
	go func() {
		h.write(frame)
		close(done)
	}()
	for {
		h.mu.Lock()
		parked := h.parked
		h.mu.Unlock()
		if parked > 0 {
			return done
		}
		runtime.Gosched()
	}
}

// TestPipeParkedWriterCatchUpKeepsRing: a reader that drains a flooded half
// to empty while the flooder is still parked — the whole backlog taken in
// one read, under one lock acquisition, before the woken writer runs —
// keeps the ring the writer is about to refill, instead of re-growing it
// 1 → 2 → 4 → 5 MB on every catch-up.
func TestPipeParkedWriterCatchUpKeepsRing(t *testing.T) {
	h := newPipeHalf()
	frame := make([]byte, 1_000_024)
	backlog := make([]byte, pipeBufferCap+len(frame))
	round := func() {
		fillToCap(h, frame)
		done := parkWriter(h, frame)
		if n, err := h.read(backlog); err != nil || n < pipeBufferCap {
			panic(fmt.Sprintf("catch-up read = %d, %v", n, err))
		}
		<-done
	}
	round()
	ring := &h.buf[0]
	// The round's own goroutine closure and channel are its only objects.
	if allocs := testing.AllocsPerRun(20, round); allocs > 2 {
		t.Errorf("%v allocs per parked-writer catch-up, want at most 2 (the round's goroutine and channel)", allocs)
	}
	if &h.buf[0] != ring {
		t.Fatalf("the catch-up re-housed the ring (now %d bytes)", len(h.buf))
	}
}

// TestPipeOvershootSizesRingOnce: the write that takes the backlog past the
// cap sizes the ring at the cap plus that write, so the next frame that is
// admitted below the cap lands in the same array even when the reader's
// header read has moved the frame boundaries by 24 bytes (sized at the
// exact need, the ring would go 4,000,096 → 5,000,096 → 5,000,120 bytes).
func TestPipeOvershootSizesRingOnce(t *testing.T) {
	h := newPipeHalf()
	frame := make([]byte, 1_000_024)
	for i := 0; i < 4; i++ {
		h.write(frame)
	}
	if len(h.buf) != 4*len(frame) {
		t.Fatalf("four frames grew the ring to %d bytes, want %d", len(h.buf), 4*len(frame))
	}
	h.read(make([]byte, 24)) // the reader takes one header: 4,000,072 queued
	h.write(frame)
	if want := pipeBufferCap + len(frame); len(h.buf) != want {
		t.Fatalf("overshooting write sized the ring at %d bytes, want %d", len(h.buf), want)
	}
	ring := &h.buf[0]
	h.read(make([]byte, len(frame)-24)) // the rest of the first frame: below the cap again
	h.write(frame)
	if &h.buf[0] != ring {
		t.Fatalf("the next admitted frame re-housed the ring (now %d bytes)", len(h.buf))
	}
}

// TestPipeBufferBytesAllocatedCounter: simnet_pipe_buffer_bytes_allocated_total
// counts a flood's first fill and stays flat while a reader catches up with
// the parked flooder and the flood refills the same ring.
func TestPipeBufferBytesAllocatedCounter(t *testing.T) {
	n := NewNetwork()
	defer n.Close()
	reg := telemetry.NewRegistry()
	n.Instrument(reg)
	allocated := func() float64 {
		for _, s := range reg.Gather() {
			if s.Name == "simnet_pipe_buffer_bytes_allocated_total" {
				return s.Value
			}
		}
		t.Fatal("simnet_pipe_buffer_bytes_allocated_total is not registered")
		return 0
	}
	l, err := n.Listen("10.0.0.1:8333")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Dial("10.0.0.2:1", "10.0.0.1:8333"); err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	h := server.(*Conn).recv
	if got := allocated(); got != 0 {
		t.Fatalf("counter at %v before any write", got)
	}

	frame := make([]byte, 1_000_024)
	fillToCap(h, frame)
	filled := allocated()
	if filled < pipeBufferCap {
		t.Fatalf("counter at %v after filling the ring, want at least %d", filled, pipeBufferCap)
	}
	done := parkWriter(h, frame)
	if _, err := server.Read(make([]byte, pipeBufferCap+len(frame))); err != nil {
		t.Fatal(err)
	}
	<-done
	fillToCap(h, frame)
	if got := allocated(); got != filled {
		t.Fatalf("counter moved %v → %v across a parked-writer catch-up", filled, got)
	}
}

// TestInjectNeverBlocks: a full receive buffer is a closed window; the
// segment is discarded as out-of-window instead of parking the injector.
func TestInjectNeverBlocks(t *testing.T) {
	h := newPipeHalf()
	h.write(make([]byte, pipeBufferCap))
	if err := h.inject(pipeBufferCap, []byte("spoof")); !errors.Is(err, ErrSeqMismatch) {
		t.Fatalf("inject into a full buffer = %v, want ErrSeqMismatch", err)
	}
	if got := h.sequence(); got != pipeBufferCap {
		t.Fatalf("rejected injection moved seq to %d", got)
	}
}

// TestInjectRacingWriterLandsAtClaimedOffset races a legitimate writer
// against an injector on one stream. Check and enqueue are one critical
// section, so every injection the fabric accepts must sit at exactly the
// stream offset it claimed; before, a write could land between the two and
// push an accepted segment past its offset.
func TestInjectRacingWriterLandsAtClaimedOffset(t *testing.T) {
	const from, to = "10.0.0.2:1", "10.0.0.1:8333"
	n := NewNetwork()
	defer n.Close()
	l, err := n.Listen(to)
	if err != nil {
		t.Fatal(err)
	}
	client, err := n.Dial(from, to)
	if err != nil {
		t.Fatal(err)
	}
	server, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}

	// The writer sends only zero bytes; an injected segment is a 0xA5
	// marker followed by the offset it claimed.
	const writers, writes = 4, 20000
	var writing, wg sync.WaitGroup
	writing.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer writing.Done()
			zeros := make([]byte, 64)
			for i := 0; i < writes; i++ {
				if _, err := client.Write(zeros[:1+i%len(zeros)]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		writing.Wait()
		client.Close()
	}()
	var stream bytes.Buffer
	go func() {
		defer wg.Done()
		if _, err := io.Copy(&stream, server); err != nil {
			t.Error(err)
		}
	}()

	accepted := 0
	for {
		seq := client.SendSeq()
		seg := binary.BigEndian.AppendUint64([]byte{0xA5}, seq)
		err := n.Inject(from, to, seq, seg)
		if err == nil {
			accepted++
			continue
		}
		if !errors.Is(err, ErrSeqMismatch) {
			break // the writer closed the stream
		}
	}
	wg.Wait()

	got := stream.Bytes()
	found := 0
	for i := 0; i < len(got); i++ {
		if got[i] != 0xA5 {
			continue
		}
		if i+9 > len(got) {
			t.Fatalf("truncated injected segment at offset %d", i)
		}
		if claimed := binary.BigEndian.Uint64(got[i+1:]); claimed != uint64(i) {
			t.Fatalf("segment claiming offset %d was delivered at offset %d", claimed, i)
		}
		found++
		i += 8
	}
	if found != accepted {
		t.Fatalf("%d injections accepted, %d found in the stream", accepted, found)
	}
	t.Logf("%d of the racing injections accepted, all at their claimed offset", accepted)
}

// BenchmarkPipe moves one frame per iteration through a connected pair:
// Conn.Write into the ring, then reads until it is drained.
func BenchmarkPipe(b *testing.B) {
	for _, size := range []int{32, 125, 1_000_000} {
		b.Run(fmt.Sprintf("frame=%d", size), func(b *testing.B) {
			client, server, cleanup := pipePair(b)
			defer cleanup()
			frame, scratch := make([]byte, size), make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Write(frame); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(server, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
