package observer

import (
	"sort"

	"banscore/internal/wal"
)

// Record schema: a wal frame whose payload starts with a kind byte; the
// fields after it use wal's canonical field codec.

// Record kinds.
const (
	recEvent  byte = 1 // one deduped fleet event
	recCursor byte = 2 // one node's journal cursor advance
)

// File-format magics. Distinct from banstore's so a mis-pointed directory
// fails magic validation instead of replaying the wrong schema.
var (
	walMagic  = []byte("OBWAL001")
	snapMagic = []byte("OBSNAP01")
)

// appendEventPayload renders one recEvent payload.
func appendEventPayload(b []byte, ev *Event) []byte {
	return appendEvent(append(b, recEvent), ev)
}

// appendEvent renders ev's fields; decodeEvent is its inverse.
func appendEvent(b []byte, ev *Event) []byte {
	b = wal.AppendString(b, ev.Node)
	b = wal.AppendString(b, ev.Stream)
	b = wal.AppendUvarint(b, ev.Seq)
	b = wal.AppendTime(b, ev.At)
	b = wal.AppendString(b, ev.Kind)
	b = wal.AppendString(b, ev.Peer)
	b = wal.AppendString(b, ev.Rule)
	b = wal.AppendFloat(b, ev.Value)
	return wal.AppendString(b, ev.Detail)
}

func decodeEvent(d *wal.Decoder) Event {
	return Event{
		Node:   d.Str(),
		Stream: d.Str(),
		Seq:    d.Uvarint(),
		At:     d.Time(),
		Kind:   d.Str(),
		Peer:   d.Str(),
		Rule:   d.Str(),
		Value:  d.Float(),
		Detail: d.Str(),
	}
}

// appendCursorPayload renders one recCursor payload.
func appendCursorPayload(b []byte, node string, cur Cursor) []byte {
	b = append(b, recCursor)
	b = wal.AppendString(b, node)
	b = wal.AppendUvarint(b, cur.Next)
	b = wal.AppendUvarint(b, cur.Dropped)
	return wal.AppendUvarint(b, cur.Base)
}

// record is one decoded WAL entry.
type record struct {
	kind   byte
	event  Event
	node   string
	cursor Cursor
}

// decodeRecord decodes one framed payload.
func decodeRecord(payload []byte) (record, error) {
	if len(payload) == 0 {
		return record{}, wal.ErrCorrupt
	}
	d := wal.NewDecoder(payload[1:])
	rec := record{kind: payload[0]}
	switch rec.kind {
	case recEvent:
		rec.event = decodeEvent(&d)
	case recCursor:
		rec.node = d.Str()
		rec.cursor.Next = d.Uvarint()
		rec.cursor.Dropped = d.Uvarint()
		rec.cursor.Base = d.Uvarint()
	default:
		return record{}, wal.ErrCorrupt
	}
	if err := d.Err(); err != nil {
		return record{}, err
	}
	return rec, nil
}

// encodeSnapshotPayload renders the full table state: cursors then events.
// Indexes are not persisted — they are a function of the event table and
// are rebuilt on recovery.
func encodeSnapshotPayload(events []Event, cursors map[string]Cursor) []byte {
	b := make([]byte, 0, 64+len(events)*64)
	b = wal.AppendUvarint(b, uint64(len(cursors)))
	for _, node := range sortedKeys(cursors) {
		cur := cursors[node]
		b = wal.AppendString(b, node)
		b = wal.AppendUvarint(b, cur.Next)
		b = wal.AppendUvarint(b, cur.Dropped)
		b = wal.AppendUvarint(b, cur.Base)
	}
	b = wal.AppendUvarint(b, uint64(len(events)))
	for i := range events {
		b = appendEvent(b, &events[i])
	}
	return b
}

// decodeSnapshotPayload is encodeSnapshotPayload's inverse.
func decodeSnapshotPayload(payload []byte) (events []Event, cursors map[string]Cursor, err error) {
	d := wal.NewDecoder(payload)
	cursors = make(map[string]Cursor)
	nCursors := d.Uvarint()
	for i := uint64(0); i < nCursors && d.Err() == nil; i++ {
		node := d.Str()
		cursors[node] = Cursor{Next: d.Uvarint(), Dropped: d.Uvarint(), Base: d.Uvarint()}
	}
	nEvents := d.Uvarint()
	if d.Err() == nil && nEvents < uint64(len(payload)) { // sanity: each event costs >=1 byte
		events = make([]Event, 0, nEvents)
	}
	for i := uint64(0); i < nEvents && d.Err() == nil; i++ {
		events = append(events, decodeEvent(&d))
	}
	if err := d.Err(); err != nil {
		return nil, nil, err
	}
	if d.Remaining() != 0 {
		return nil, nil, wal.ErrCorrupt
	}
	return events, cursors, nil
}

// sortedKeys makes the encoding canonical: the same logical state always
// serializes to the same bytes.
func sortedKeys(m map[string]Cursor) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
