// Package detect implements the paper's countermeasure (§VII): a
// lightweight, identifier-oblivious anomaly-detection engine built from
// three components — Monitor (message tap), Dataset (windowed counts), and
// the statistical Analysis engine with the paper's three features:
//
//	c — outbound peer reconnection rate (Defamation signature),
//	n — overall message rate (BM-DoS signature),
//	Λ — message count distribution, compared by Pearson correlation ρ.
//
// The approach needs no Bitcoin Core change and no machine learning; the
// Fig. 11 comparison against seven ML baselines lives in package mlbase.
package detect

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"banscore/internal/trace"
	"banscore/internal/traffic"
)

// DefaultWindow is the paper's detection time window (10 minutes).
const DefaultWindow = 10 * time.Minute

// WindowStats is one Dataset entry: everything the Monitor observed in one
// time window.
type WindowStats struct {
	Start    time.Time
	Duration time.Duration

	// Counts per message command.
	Counts map[string]float64

	// Messages is the total message count.
	Messages int

	// Reconnects is the number of outbound peer reconnections.
	Reconnects int
}

// RatePerMinute returns the window's overall message rate n.
func (w WindowStats) RatePerMinute() float64 {
	minutes := w.Duration.Minutes()
	if minutes == 0 {
		return 0
	}
	return float64(w.Messages) / minutes
}

// ReconnectRatePerMinute returns the window's reconnection rate c.
func (w WindowStats) ReconnectRatePerMinute() float64 {
	minutes := w.Duration.Minutes()
	if minutes == 0 {
		return 0
	}
	return float64(w.Reconnects) / minutes
}

// Commands returns the window's observed commands, sorted.
func (w WindowStats) Commands() []string {
	cmds := make([]string, 0, len(w.Counts))
	for cmd := range w.Counts {
		cmds = append(cmds, cmd)
	}
	sort.Strings(cmds)
	return cmds
}

// Monitor is the node-attached collection component (Fig. 9). It implements
// the node's Tap interface and rolls observations into fixed windows.
// Monitor is safe for concurrent use.
type Monitor struct {
	window time.Duration

	mu         sync.Mutex
	current    *WindowStats
	completed  []WindowStats
	onComplete func(WindowStats)
	tracer     *trace.Tracer
}

// NewMonitor returns a Monitor with the given window length (zero selects
// DefaultWindow).
func NewMonitor(window time.Duration) *Monitor {
	if window == 0 {
		window = DefaultWindow
	}
	return &Monitor{window: window}
}

// Window returns the configured window length.
func (m *Monitor) Window() time.Duration { return m.window }

// OnWindowComplete registers fn to be invoked for every window the Monitor
// closes (including the empty gap windows of quiet periods). fn runs with
// the Monitor's lock held and must not call back into the Monitor; keep it
// cheap — the telemetry layer uses it to publish live window gauges.
func (m *Monitor) OnWindowComplete(fn func(WindowStats)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onComplete = fn
}

// SetTracer installs the lifecycle tracer: every window the Monitor closes
// while tracing is enabled is recorded as a detect_window span (unsampled —
// windows are rare and each one is a detection verdict input).
func (m *Monitor) SetTracer(t *trace.Tracer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tracer = t
}

// roll opens/advances windows so that `at` falls into the current one.
// Caller holds mu.
func (m *Monitor) roll(at time.Time) {
	if m.current == nil {
		m.current = &WindowStats{
			Start:    at,
			Duration: m.window,
			Counts:   make(map[string]float64),
		}
		return
	}
	for !at.Before(m.current.Start.Add(m.window)) {
		m.completed = append(m.completed, *m.current)
		if m.onComplete != nil {
			m.onComplete(*m.current)
		}
		m.traceWindow(*m.current)
		m.current = &WindowStats{
			Start:    m.current.Start.Add(m.window),
			Duration: m.window,
			Counts:   make(map[string]float64),
		}
	}
}

// traceWindow records a closed window on the lifecycle tracer. Caller holds
// mu; the tracer has its own lock and never calls back into the Monitor.
func (m *Monitor) traceWindow(w WindowStats) {
	if ctx := m.tracer.Always(); ctx != nil {
		ctx.Add(trace.Span{
			Stage: trace.StageDetectWindow,
			Note:  fmt.Sprintf("messages=%d reconnects=%d", w.Messages, w.Reconnects),
			Start: w.Start, Duration: w.Duration,
		})
	}
}

// OnMessage implements the node Tap: record one message arrival. Inside
// the live window it allocates nothing; rollover allocates in roll().
func (m *Monitor) OnMessage(cmd string, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.roll(at)
	m.current.Counts[cmd]++
	m.current.Messages++
}

// OnOutboundReconnect implements the node Tap: record one outbound
// reconnection.
func (m *Monitor) OnOutboundReconnect(at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.roll(at)
	m.current.Reconnects++
}

// Windows returns the completed windows collected so far (the Dataset).
func (m *Monitor) Windows() []WindowStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]WindowStats, len(m.completed))
	copy(out, m.completed)
	return out
}

// Flush closes the current partial window into the dataset and returns the
// full dataset.
func (m *Monitor) Flush() []WindowStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.current != nil && m.current.Messages+m.current.Reconnects > 0 {
		m.completed = append(m.completed, *m.current)
		if m.onComplete != nil {
			m.onComplete(*m.current)
		}
		m.current = nil
	}
	out := make([]WindowStats, len(m.completed))
	copy(out, m.completed)
	return out
}

// Reset clears all collected state.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.current = nil
	m.completed = nil
}

// WindowsFromEvents builds a Dataset directly from an offline event stream
// plus reconnect timestamps — how the experiments replay synthetic Mainnet
// feeds through the identical windowing code. Events and reconnects must be
// time-ordered (the Monitor advances monotonically). Only COMPLETED windows
// are returned; the trailing partial window is discarded, as a live engine
// would wait for it to fill.
func WindowsFromEvents(events []traffic.Event, reconnects []time.Time, window time.Duration) []WindowStats {
	m := NewMonitor(window)
	ri := 0
	for _, ev := range events {
		for ri < len(reconnects) && !reconnects[ri].After(ev.At) {
			m.OnOutboundReconnect(reconnects[ri])
			ri++
		}
		m.OnMessage(ev.Cmd, ev.At)
	}
	for ri < len(reconnects) {
		m.OnOutboundReconnect(reconnects[ri])
		ri++
	}
	return m.Windows()
}
