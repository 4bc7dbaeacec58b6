package telemetry

import (
	"sync"
	"time"

	"banscore/internal/ring"
)

// EventType tags a journal entry.
type EventType string

// The event vocabulary every instrumented layer shares. The set mirrors
// what the paper's figures are built from: connection churn, score
// increments with their Table I rule, bans, the outbound reconnections the
// detection feature c watches, and detection verdicts.
const (
	EventPeerConnect    EventType = "peer_connect"
	EventPeerDisconnect EventType = "peer_disconnect"
	EventConnRefused    EventType = "conn_refused"
	EventScore          EventType = "score"
	EventBan            EventType = "ban"
	EventReconnect      EventType = "outbound_reconnect"
	EventDetectWindow   EventType = "detect_window"
	EventDetectAlarm    EventType = "detect_alarm"
)

// Event is one journal entry. Fields other than Type are optional and
// omitted from JSON when empty.
type Event struct {
	// Seq is the 1-based global sequence number, stamped by Record.
	Seq uint64 `json:"seq"`

	// At is the event time. Record stamps time.Now if left zero.
	At time.Time `json:"at"`

	Type EventType `json:"type"`

	// Peer is the [IP:Port] connection identifier involved, if any.
	Peer string `json:"peer,omitempty"`

	// Rule is the Table I rule name for score events.
	Rule string `json:"rule,omitempty"`

	// Value carries the event's magnitude: score delta for score events,
	// total score for bans, feature value for detection events.
	Value float64 `json:"value,omitempty"`

	// Detail is free-form context.
	Detail string `json:"detail,omitempty"`
}

// Journal is a fixed-capacity ring buffer of events. When full, the oldest
// events are overwritten; Total always reports how many were ever recorded,
// so readers can tell how much history was dropped. A nil *Journal is a
// valid no-op sink, which lets call sites record unconditionally.
type Journal struct {
	mu   sync.Mutex
	ring ring.Ring[Event]
}

// DefaultJournalCapacity bounds a journal built with capacity <= 0.
const DefaultJournalCapacity = 4096

// NewJournal returns a journal holding up to capacity events (<= 0 selects
// DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{ring: ring.New[Event](capacity)}
}

// Record appends ev, stamping its sequence number and — if unset — its
// time. Safe for concurrent use; no-op on a nil journal.
func (j *Journal) Record(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	ev.Seq = j.ring.Total() + 1
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	j.ring.Push(ev)
	j.mu.Unlock()
}

// Events returns the retained events, oldest first. Nil journals return
// nil.
func (j *Journal) Events() []Event {
	events, _, _ := j.EventsSince(0)
	return events
}

// EventsSince returns the retained events with Seq > cursor, oldest first,
// plus the cursor a caller should resume from (the newest sequence number at
// the time of the call) and how many requested events the ring had already
// overwritten — the gap between cursor and the oldest retained sequence.
// Sequence numbers are global and monotonic (Record stamps them), so a
// poller that stores next and passes it back sees every event exactly once
// and can detect loss whenever dropped is non-zero. A cursor ahead of the
// journal (a restarted process reset the sequence) returns no events; the
// caller compares next against its cursor to detect the restart. Nil
// journals return (nil, cursor, 0).
func (j *Journal) EventsSince(cursor uint64) (events []Event, next uint64, dropped uint64) {
	if j == nil {
		return nil, cursor, 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	events, dropped = j.ring.Since(cursor)
	return events, j.ring.Total(), dropped
}

// Total returns how many events were ever recorded (including overwritten
// ones).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Total()
}

// Len returns how many events are currently retained.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Len()
}

// Dropped returns how many events the ring has overwritten — the journal's
// forensic-gap counter.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Dropped()
}

// Capacity returns the ring size.
func (j *Journal) Capacity() int {
	if j == nil {
		return 0
	}
	return j.ring.Limit()
}

// Instrument registers the journal's own series on reg: totals, the
// dropped-events counter, and retained length vs capacity gauges.
func (j *Journal) Instrument(reg *Registry) {
	if j == nil || reg == nil {
		return
	}
	reg.Describe("journal_events_total", "Events ever recorded into the journal.")
	reg.Describe("journal_events_dropped_total", "Events overwritten by the journal ring before export.")
	reg.Describe("journal_events_retained", "Events currently retained in the journal ring.")
	reg.Describe("journal_capacity", "Journal ring capacity.")
	reg.CounterFunc("journal_events_total", func() float64 { return float64(j.Total()) })
	reg.CounterFunc("journal_events_dropped_total", func() float64 { return float64(j.Dropped()) })
	reg.GaugeFunc("journal_events_retained", func() float64 { return float64(j.Len()) })
	reg.GaugeFunc("journal_capacity", func() float64 { return float64(j.Capacity()) })
}
