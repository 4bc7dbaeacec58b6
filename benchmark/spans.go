package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"banscore/internal/trace"
)

// slabMsgs is the span granularity of the traced run: one span per layer
// per slab of this many messages (or slabBytes, for the 1 MB frames).
const (
	slabMsgs  = 4096
	slabBytes = 64 << 20
)

// span is one layer's work on one slab, timed from outside the layer:
// around a call into its public functions, from the benchmark's own files.
type span struct {
	ID     int
	Parent int // the span, of the stack that contains this layer, over the same slab; 0 if none
	Probe  string
	Slab   int
	Start  time.Time
	d      delta
	Msgs   int64
	Bytes  int64
	thread bool // charged its own thread's CPU, not the process's
}

// recorder keeps every span of one workload's traced run in memory; the
// trace file is written when the run ends.
type recorder struct {
	runID uint64 // shared by every span of the run
	spans []span
}

// add appends a span for the given probe and slab.
func (r *recorder) add(probe string, slab int, start counters, d delta, msgs, bytes int64, thread bool) {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Probe: probe, Slab: slab,
		Start: start.wall, d: d, Msgs: msgs, Bytes: bytes, thread: thread,
	})
}

// probeTotal is one probe summed over its slabs.
type probeTotal struct {
	msgs, bytes int64
	d           delta
	perSlab     []float64 // CPU ns per message of each slab; thread-charged probes only
}

// nsPerMsg is the probe's CPU per message with the collector's CPU taken
// out. (A single-goroutine probe reads its own thread's CPU and reports no
// GC CPU; a pipeline reads the process's.) The ledger carries GC as a line
// of its own, read from the untraced run.
func (t probeTotal) nsPerMsg() float64 {
	if t.msgs == 0 {
		return 0
	}
	if len(t.perSlab) > 0 {
		// A thread-charged probe has no GC CPU to take out, and its slabs
		// are independent samples: their median shrugs off the slab a
		// collection or a page fault landed in.
		return median(t.perSlab)
	}
	ns := float64(t.d.cpu.Nanoseconds()) - t.d.gcCPU*1e9
	if ns < 0 {
		ns = 0
	}
	return ns / float64(t.msgs)
}

func (t probeTotal) allocsPerMsg() float64 {
	if t.msgs == 0 {
		return 0
	}
	return float64(t.d.mallocs) / float64(t.msgs)
}

func (r *recorder) total(probe string) probeTotal {
	var t probeTotal
	for i := range r.spans {
		sp := &r.spans[i]
		if sp.Probe != probe {
			continue
		}
		t.msgs += sp.Msgs
		t.bytes += sp.Bytes
		t.d.cpu += sp.d.cpu
		t.d.wall += sp.d.wall
		t.d.mallocs += sp.d.mallocs
		t.d.bytes += sp.d.bytes
		t.d.gcCPU += sp.d.gcCPU
		if sp.thread && sp.Msgs > 0 {
			t.perSlab = append(t.perSlab, float64(sp.d.cpu.Nanoseconds())/float64(sp.Msgs))
		}
	}
	return t
}

// link sets each span's parent: the span of the named containing probe over
// the same slab. A stack's self time is then its spans' time minus the time
// of the spans that name it as parent, slab by slab. The layers are probed
// one after another, not nested in time, so the relation is by slab, not by
// interval.
func (r *recorder) link(parents map[string]string) {
	index := map[string]int{}
	for _, sp := range r.spans {
		index[fmt.Sprintf("%s/%d", sp.Probe, sp.Slab)] = sp.ID
	}
	for i := range r.spans {
		if p, ok := parents[r.spans[i].Probe]; ok {
			r.spans[i].Parent = index[fmt.Sprintf("%s/%d", p, r.spans[i].Slab)]
		}
	}
}

// write renders the spans as Chrome trace-event JSON through the tracer's
// own exporter: one lane per probe, the counts in each event's note.
func (r *recorder) write(dir, workload string) (string, error) {
	out := make([]trace.Span, 0, len(r.spans))
	for _, sp := range r.spans {
		out = append(out, trace.Span{
			TraceID:  r.runID,
			Stage:    trace.Stage(sp.Probe),
			Peer:     sp.Probe,
			Cmd:      workload,
			Start:    sp.Start,
			Duration: sp.d.wall,
			Note: fmt.Sprintf("span=%d parent=%d slab=%d msgs=%d bytes=%d cpu_ns=%d gc_cpu_ns=%.0f allocs=%d alloc_bytes=%d",
				sp.ID, sp.Parent, sp.Slab, sp.Msgs, sp.Bytes, sp.d.cpu.Nanoseconds(), sp.d.gcCPU*1e9, sp.d.mallocs, sp.d.bytes),
		})
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := trace.WriteChrome(f, out); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// marker cuts a consumer's message stream into slabs: the consumer calls hit
// once per message, from one goroutine, and every full slab becomes a span.
type marker struct {
	r     *recorder
	probe string
	total int64
	done  chan struct{}

	// thread: the consumer is locked to its OS thread and is charged that
	// thread's CPU alone, not the process's.
	thread bool

	seen      int64
	slab      int
	slabMsgs  int64
	slabBytes int64
	last      counters
}

func (r *recorder) newMarker(probe string, total int) *marker {
	return &marker{r: r, probe: probe, total: int64(total), done: make(chan struct{})}
}

// begin takes the first reading; call it just before the first message is
// offered.
func (m *marker) begin() { m.last = m.read() }

func (m *marker) read() counters {
	c := readCounters()
	if m.thread {
		c.cpu, c.gcCPU = threadCPUTime(), 0
	}
	return c
}

func (m *marker) hit(bytes int) {
	m.seen++
	m.slabMsgs++
	m.slabBytes += int64(bytes)
	if m.slabMsgs < slabMsgs && m.slabBytes < slabBytes && m.seen < m.total {
		return
	}
	now := m.read()
	m.r.add(m.probe, m.slab, m.last, now.since(m.last), m.slabMsgs, m.slabBytes, m.thread)
	m.slab++
	m.slabMsgs, m.slabBytes, m.last = 0, 0, now
	if m.seen == m.total {
		close(m.done)
	}
}

// wait blocks until the consumer has seen every message, or the deadline.
func (m *marker) wait(deadline time.Time) error {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-m.done:
		return nil
	case <-timer.C:
		return fmt.Errorf("probe %s: consumer did not see all %d messages before the deadline", m.probe, m.total)
	}
}
