package banstore

import (
	"sort"
	"time"

	"banscore/internal/core"
	"banscore/internal/reputation"
	"banscore/internal/wal"
)

// State is a compacted snapshot of everything the node's ban intelligence
// knows: tracker scores, the ban list, the forensics ledger, and (when the
// reputation engine is running) its full peer/netgroup state. Encoding is
// canonical — map keys are sorted — so the same logical state always
// produces the same bytes regardless of shard counts or map iteration
// order.
type State struct {
	Scores map[core.PeerID]int
	Good   map[core.PeerID]int
	Bans   map[core.PeerID]time.Time

	Ledger core.LedgerState

	HasRep bool
	Rep    reputation.State
}

// CaptureState exports the live components into a State. ledger and engine
// may be nil.
func CaptureState(tracker *core.Tracker, ledger *core.Ledger, engine *reputation.Engine) State {
	st := State{}
	st.Scores, st.Good = tracker.ExportScores()
	st.Bans = tracker.BanList().Export()
	st.Ledger = ledger.ExportState()
	if engine != nil {
		st.HasRep = true
		st.Rep = engine.ExportState()
	}
	return st
}

const stateVersion = 1

// EncodeState serializes st canonically.
func EncodeState(st State) []byte {
	b := []byte{stateVersion}

	b = wal.AppendUvarint(b, uint64(len(st.Scores)))
	for _, id := range sortedPeerKeys(st.Scores) {
		b = wal.AppendString(b, string(id))
		b = wal.AppendVarint(b, int64(st.Scores[id]))
	}
	b = wal.AppendUvarint(b, uint64(len(st.Good)))
	for _, id := range sortedPeerKeys(st.Good) {
		b = wal.AppendString(b, string(id))
		b = wal.AppendVarint(b, int64(st.Good[id]))
	}
	b = wal.AppendUvarint(b, uint64(len(st.Bans)))
	banIDs := make([]core.PeerID, 0, len(st.Bans))
	for id := range st.Bans {
		banIDs = append(banIDs, id)
	}
	sort.Slice(banIDs, func(i, j int) bool { return banIDs[i] < banIDs[j] })
	for _, id := range banIDs {
		b = wal.AppendString(b, string(id))
		b = wal.AppendTime(b, st.Bans[id])
	}

	// Forensics ledger: chains already carry first-appearance order, which
	// is itself part of the state (eviction order), so they are encoded
	// as-is rather than re-sorted.
	b = wal.AppendVarint(b, int64(st.Ledger.MaxPeers))
	b = wal.AppendVarint(b, int64(st.Ledger.MaxPerPeer))
	b = wal.AppendUvarint(b, st.Ledger.Total)
	b = wal.AppendUvarint(b, st.Ledger.Evicted)
	b = wal.AppendUvarint(b, st.Ledger.Trimmed)
	b = wal.AppendUvarint(b, uint64(len(st.Ledger.Chains)))
	for i := range st.Ledger.Chains {
		c := &st.Ledger.Chains[i]
		b = wal.AppendString(b, string(c.Peer))
		b = wal.AppendUvarint(b, c.Seq)
		b = wal.AppendUvarint(b, uint64(len(c.Records)))
		for j := range c.Records {
			b = appendBanRecord(b, &c.Records[j])
		}
	}

	b = wal.AppendBool(b, st.HasRep)
	if st.HasRep {
		b = wal.AppendUvarint(b, uint64(len(st.Rep.Peers)))
		for i := range st.Rep.Peers {
			p := &st.Rep.Peers[i]
			b = wal.AppendString(b, string(p.ID))
			b = wal.AppendString(b, p.Group)
			b = wal.AppendFloat(b, p.Trust)
			b = wal.AppendFloat(b, p.Mis)
			b = wal.AppendFloat(b, p.Contributed)
			b = wal.AppendTime(b, p.Last)
			b = wal.AppendUvarint(b, p.Penalties)
			b = wal.AppendUvarint(b, p.Credits)
		}
		b = wal.AppendUvarint(b, uint64(len(st.Rep.Groups)))
		for i := range st.Rep.Groups {
			g := &st.Rep.Groups[i]
			b = wal.AppendString(b, g.Key)
			b = wal.AppendFloat(b, g.Pressure)
			b = wal.AppendTime(b, g.Last)
			b = wal.AppendTime(b, g.BannedUntil)
			b = wal.AppendVarint(b, int64(g.Identities))
			b = wal.AppendUvarint(b, g.Bans)
		}
		b = wal.AppendUvarint(b, st.Rep.Penalties)
		b = wal.AppendUvarint(b, st.Rep.Credits)
		b = wal.AppendUvarint(b, st.Rep.GroupBans)
		b = wal.AppendUvarint(b, st.Rep.Rejected)
	}
	return b
}

// DecodeState parses an EncodeState payload.
func DecodeState(b []byte) (State, error) {
	if len(b) == 0 || b[0] != stateVersion {
		return State{}, wal.ErrCorrupt
	}
	d := wal.NewDecoder(b[1:])
	st := State{
		Scores: map[core.PeerID]int{},
		Good:   map[core.PeerID]int{},
		Bans:   map[core.PeerID]time.Time{},
	}
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		id := core.PeerID(d.Str())
		st.Scores[id] = int(d.Varint())
	}
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		id := core.PeerID(d.Str())
		st.Good[id] = int(d.Varint())
	}
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		id := core.PeerID(d.Str())
		st.Bans[id] = d.Time()
	}

	st.Ledger.MaxPeers = int(d.Varint())
	st.Ledger.MaxPerPeer = int(d.Varint())
	st.Ledger.Total = d.Uvarint()
	st.Ledger.Evicted = d.Uvarint()
	st.Ledger.Trimmed = d.Uvarint()
	for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
		c := core.LedgerChain{Peer: core.PeerID(d.Str()), Seq: d.Uvarint()}
		for m := d.Uvarint(); m > 0 && d.Err() == nil; m-- {
			c.Records = append(c.Records, decodeBanRecord(&d))
		}
		st.Ledger.Chains = append(st.Ledger.Chains, c)
	}

	if st.HasRep = d.Bool(); st.HasRep {
		for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
			st.Rep.Peers = append(st.Rep.Peers, reputation.PeerPersist{
				ID:          core.PeerID(d.Str()),
				Group:       d.Str(),
				Trust:       d.Float(),
				Mis:         d.Float(),
				Contributed: d.Float(),
				Last:        d.Time(),
				Penalties:   d.Uvarint(),
				Credits:     d.Uvarint(),
			})
		}
		for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
			st.Rep.Groups = append(st.Rep.Groups, reputation.GroupPersist{
				Key:         d.Str(),
				Pressure:    d.Float(),
				Last:        d.Time(),
				BannedUntil: d.Time(),
				Identities:  int(d.Varint()),
				Bans:        d.Uvarint(),
			})
		}
		st.Rep.Penalties = d.Uvarint()
		st.Rep.Credits = d.Uvarint()
		st.Rep.GroupBans = d.Uvarint()
		st.Rep.Rejected = d.Uvarint()
	}
	if err := d.Err(); err != nil {
		return State{}, err
	}
	return st, nil
}

func sortedPeerKeys(m map[core.PeerID]int) []core.PeerID {
	keys := make([]core.PeerID, 0, len(m))
	for id := range m {
		keys = append(keys, id)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Restore rebuilds the live components from a recovery result: snapshot
// first, then every retained WAL record decoded and replayed in order, so
// no more than one decoded record is live at a time. Replay is
// idempotent over the snapshot — score/ban/trust records carry post-state
// absolutes (last-write-wins), ledger and reputation records are de-duped
// by their stamped sequence numbers — so it is correct, by design, for the
// retained log to overlap the snapshot. ledger and engine may be nil; their
// records are then skipped.
func Restore(rec *Recovered, tracker *core.Tracker, ledger *core.Ledger, engine *reputation.Engine) {
	scores := map[core.PeerID]int{}
	good := map[core.PeerID]int{}
	bans := map[core.PeerID]time.Time{}
	if rec.Snapshot != nil {
		st := rec.Snapshot
		for id, v := range st.Scores {
			scores[id] = v
		}
		for id, v := range st.Good {
			good[id] = v
		}
		for id, until := range st.Bans {
			bans[id] = until
		}
		ledger.ImportState(st.Ledger)
		if engine != nil && st.HasRep {
			engine.ImportState(st.Rep)
		}
	}
	for _, payload := range rec.Records {
		// Open retained only payloads decodeRecord accepts.
		r, _ := decodeRecord(payload)
		switch r.Kind {
		case recMisbehave:
			m := &r.Misbehavior
			if m.Banned {
				// The live path resets the score on ban (the peer moves to
				// the ban list); mirror it.
				delete(scores, m.Peer)
			} else {
				scores[m.Peer] = m.Score
			}
			ledger.Restore(*m)
		case recBan:
			bans[r.Peer] = r.Until
		case recForget:
			delete(scores, r.Peer)
			delete(good, r.Peer)
		case recGood:
			good[r.Peer] = r.Total
		case recPenalty:
			if engine != nil {
				engine.RestorePenalty(r.Penalty)
			}
		case recCredit:
			if engine != nil {
				engine.RestoreCredit(r.Credit)
			}
		}
	}
	tracker.ImportScores(scores, good)
	tracker.BanList().Import(bans)
}
