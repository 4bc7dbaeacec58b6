// Package trace implements the reproduction's message-lifecycle tracer: a
// sampled, ring-buffered span store threaded through every hop a message
// takes — the simnet fabric write, wire decode in the peer read loop, the
// node's application-layer dispatch, any core.Tracker.Misbehaving call it
// triggers, the outbound send queue and encode, and the detection engine's
// window roll-ups. Each sampled message gets a trace ID that ties its spans
// (and any ban-ledger records it produced) into one causal chain, which is
// what turns the paper's attribution questions — *why* was this peer banned,
// *where* does an attack message spend its cost (Table II) — into queries.
//
// The tracer follows the telemetry layer's fast-path discipline: when
// disabled (or nil) a call site pays one atomic load; when enabled, only
// 1-in-N messages are promoted to a trace, and unsampled messages pay one
// atomic load plus one atomic increment. Spans are retained in a fixed ring;
// the overwrite count is exposed so forensic gaps are visible.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"banscore/internal/ring"
	"banscore/internal/telemetry"
)

// Stage names one hop of the message lifecycle. The set is closed: per-stage
// latency histograms are pre-registered by Instrument, and the Chrome export
// groups rows by stage name.
type Stage string

// The lifecycle stages, in pipeline order.
const (
	// StageConnWrite is one fabric write (including any fault-layer delay
	// and receiver back-pressure) on a simnet connection.
	StageConnWrite Stage = "conn_write"

	// StageWireDecode is the peer read loop's framing + decode of one
	// inbound message. Its duration includes time blocked waiting for
	// bytes, so it bounds network idle + transfer + parse.
	StageWireDecode Stage = "wire_decode"

	// StageHandle is the node's application-layer dispatch — the work the
	// paper's Table II prices per message type.
	StageHandle Stage = "handle"

	// StageMisbehave is one core.Tracker.Misbehaving call (Table I rule
	// application) reached from a traced dispatch.
	StageMisbehave Stage = "misbehave"

	// StageSendQueue is the time an outbound message waited in the peer's
	// send queue before the write loop dequeued it (back-pressure).
	StageSendQueue Stage = "send_queue"

	// StageWireEncode is the write loop's encode + write to the wire.
	StageWireEncode Stage = "wire_encode"

	// StageDetectWindow marks a detection window the Monitor closed while
	// tracing was enabled (recorded unsampled — windows are rare).
	StageDetectWindow Stage = "detect_window"
)

// Stages lists every lifecycle stage in pipeline order.
func Stages() []Stage {
	return []Stage{
		StageConnWrite, StageWireDecode, StageHandle, StageMisbehave,
		StageSendQueue, StageWireEncode, StageDetectWindow,
	}
}

// Span is one recorded lifecycle hop.
type Span struct {
	// TraceID ties the span to the sampled message it belongs to. IDs are
	// node-local, dense, and start at 1; 0 never appears.
	TraceID uint64 `json:"trace_id"`

	Stage Stage `json:"stage"`

	// Peer is the [IP:Port] connection identifier involved, if any.
	Peer string `json:"peer,omitempty"`

	// Cmd is the wire command being carried, if any.
	Cmd string `json:"cmd,omitempty"`

	// Rule is the Table I rule name for misbehave spans.
	Rule string `json:"rule,omitempty"`

	// Note is free-form stage context (e.g. window stats).
	Note string `json:"note,omitempty"`

	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
}

// DefaultSampleN traces one message in 64 — the same thinning factor as the
// telemetry layer's dispatch-latency sampler, for the same reason: two clock
// reads per message would dominate the per-message budget.
const DefaultSampleN = 64

// DefaultCapacity bounds a tracer ring built with capacity <= 0.
const DefaultCapacity = 8192

// Config parameterizes a Tracer.
type Config struct {
	// SampleN promotes one message in SampleN to a trace. Values are
	// rounded up to a power of two so the sampler is a mask test; <= 0
	// selects DefaultSampleN, 1 traces everything.
	SampleN int

	// Capacity is the span ring size; <= 0 selects DefaultCapacity.
	Capacity int
}

// Tracer samples messages into lifecycle traces. A nil *Tracer is a valid
// no-op: every method checks for it, so call sites thread the pointer
// unconditionally. Tracer is safe for concurrent use.
type Tracer struct {
	enabled atomic.Bool
	mask    uint64 // sampleN-1, sampleN a power of two

	seq     atomic.Uint64 // messages offered to the sampler
	ids     atomic.Uint64 // trace IDs handed out
	sampled atomic.Uint64 // messages promoted to a trace

	mu    sync.Mutex
	spans ring.Ring[Span]
	hists map[Stage]*telemetry.Histogram
}

// New builds a Tracer. It starts disabled; call Enable.
func New(cfg Config) *Tracer {
	n := cfg.SampleN
	if n <= 0 {
		n = DefaultSampleN
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		mask:  uint64(pow - 1),
		spans: ring.New[Span](capacity),
	}
}

// Enable arms the tracer. Nil-safe.
func (t *Tracer) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Armed reports whether the tracer exists and is enabled — the single
// atomic load the hot path pays when tracing is off.
func (t *Tracer) Armed() bool { return t != nil && t.enabled.Load() }

// SampleN returns the effective 1-in-N sampling factor.
func (t *Tracer) SampleN() int {
	if t == nil {
		return 0
	}
	return int(t.mask) + 1
}

// Sample offers one message to the sampler. It returns a non-nil Ctx for
// the 1-in-N messages promoted to a trace, nil otherwise (and always nil
// when the tracer is disabled or nil).
func (t *Tracer) Sample() *Ctx {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	if t.seq.Add(1)&t.mask != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &Ctx{t: t, id: t.ids.Add(1)}
}

// Always returns a Ctx bypassing the 1-in-N sampler (still nil when the
// tracer is disabled). It is for rare, high-value events — detection window
// closures — where thinning would lose the whole signal.
func (t *Tracer) Always() *Ctx {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	t.sampled.Add(1)
	return &Ctx{t: t, id: t.ids.Add(1)}
}

// Ctx is one sampled message's trace handle. A nil *Ctx is a valid no-op so
// call sites record unconditionally.
type Ctx struct {
	t  *Tracer
	id uint64
}

// TraceID returns the trace identifier, or 0 for a nil Ctx.
func (c *Ctx) TraceID() uint64 {
	if c == nil {
		return 0
	}
	return c.id
}

// Add records sp into the trace, stamping its TraceID. Nil-safe.
func (c *Ctx) Add(sp Span) {
	if c == nil {
		return
	}
	sp.TraceID = c.id
	c.t.record(sp)
}

// Record is the common-case Add: a stage with peer and command context.
func (c *Ctx) Record(stage Stage, peer, cmd string, start time.Time, d time.Duration) {
	if c == nil {
		return
	}
	c.t.record(Span{TraceID: c.id, Stage: stage, Peer: peer, Cmd: cmd, Start: start, Duration: d})
}

// record appends sp to the ring and feeds the per-stage latency histogram.
func (t *Tracer) record(sp Span) {
	t.mu.Lock()
	t.spans.Push(sp)
	h := t.hists[sp.Stage]
	t.mu.Unlock()
	if h != nil {
		h.Observe(sp.Duration.Seconds())
	}
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.Snapshot()
}

// Stats reports (spans ever recorded, spans overwritten, messages sampled).
func (t *Tracer) Stats() (total, dropped, sampled uint64) {
	if t == nil {
		return 0, 0, 0
	}
	t.mu.Lock()
	total, dropped = t.spans.Total(), t.spans.Dropped()
	t.mu.Unlock()
	return total, dropped, t.sampled.Load()
}

// Reset clears the span ring (counters keep accumulating).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans.Reset()
	t.mu.Unlock()
}

// Instrument registers the tracer's series on reg: per-stage latency
// histograms (trace_stage_seconds{stage=...}) plus span/sample/drop
// counters. Stage histograms are pre-created for the closed stage set so the
// record path is a plain map read under the ring lock.
func (t *Tracer) Instrument(reg *telemetry.Registry) {
	if t == nil || reg == nil {
		return
	}
	reg.Describe("trace_stage_seconds", "Per-stage message lifecycle latency from sampled traces.")
	reg.Describe("trace_spans_total", "Lifecycle spans ever recorded.")
	reg.Describe("trace_spans_dropped_total", "Spans overwritten by the trace ring before export.")
	reg.Describe("trace_sampled_messages_total", "Messages promoted to a lifecycle trace.")
	hists := make(map[Stage]*telemetry.Histogram, len(Stages()))
	for _, stage := range Stages() {
		hists[stage] = reg.Histogram("trace_stage_seconds", telemetry.L("stage", string(stage)))
	}
	t.mu.Lock()
	t.hists = hists
	t.mu.Unlock()
	reg.CounterFunc("trace_spans_total", func() float64 {
		total, _, _ := t.Stats()
		return float64(total)
	})
	reg.CounterFunc("trace_spans_dropped_total", func() float64 {
		_, dropped, _ := t.Stats()
		return float64(dropped)
	})
	reg.CounterFunc("trace_sampled_messages_total", func() float64 {
		_, _, sampled := t.Stats()
		return float64(sampled)
	})
}
