package banstore

import (
	"time"

	"banscore/internal/core"
	"banscore/internal/reputation"
	"banscore/internal/wal"
)

// Record schema. Every WAL record is a wal frame whose payload starts with
// a kind byte; the fields after it use wal's canonical field codec.

// Record kinds.
const (
	recMisbehave byte = 1 // one Tracker scoring hit (a full core.BanRecord)
	recBan       byte = 2 // identifier ban with absolute expiry
	recForget    byte = 3 // clean disconnect dropped live score state
	recGood      byte = 4 // good-score credit with post-state total
	recPenalty   byte = 5 // reputation.PenaltyRecord
	recCredit    byte = 6 // reputation.CreditRecord
)

// --- record payloads -----------------------------------------------------

func appendBanRecord(b []byte, rec *core.BanRecord) []byte {
	b = wal.AppendUvarint(b, rec.Seq)
	b = wal.AppendTime(b, rec.At)
	b = wal.AppendString(b, string(rec.Peer))
	b = wal.AppendUvarint(b, uint64(rec.RuleID))
	b = wal.AppendString(b, rec.Rule)
	b = wal.AppendVarint(b, int64(rec.Delta))
	b = wal.AppendVarint(b, int64(rec.Score))
	b = wal.AppendBool(b, rec.Banned)
	b = wal.AppendString(b, rec.Command)
	b = wal.AppendUvarint(b, rec.TraceID)
	b = wal.AppendUvarint(b, uint64(rec.PayloadDigest))
	b = wal.AppendVarint(b, int64(rec.PayloadLen))
	return b
}

func decodeBanRecord(d *wal.Decoder) core.BanRecord {
	return core.BanRecord{
		Seq:           d.Uvarint(),
		At:            d.Time(),
		Peer:          core.PeerID(d.Str()),
		RuleID:        core.RuleID(d.Uvarint()),
		Rule:          d.Str(),
		Delta:         int(d.Varint()),
		Score:         int(d.Varint()),
		Banned:        d.Bool(),
		Command:       d.Str(),
		TraceID:       d.Uvarint(),
		PayloadDigest: uint32(d.Uvarint()),
		PayloadLen:    int(d.Varint()),
	}
}

func appendPenaltyRecord(b []byte, rec *reputation.PenaltyRecord) []byte {
	b = wal.AppendString(b, string(rec.ID))
	b = wal.AppendUvarint(b, rec.Seq)
	b = wal.AppendTime(b, rec.At)
	b = wal.AppendFloat(b, rec.Mis)
	b = wal.AppendFloat(b, rec.Contributed)
	b = wal.AppendString(b, rec.Group)
	b = wal.AppendFloat(b, rec.Pressure)
	b = wal.AppendTime(b, rec.BannedUntil)
	b = wal.AppendVarint(b, int64(rec.Identities))
	b = wal.AppendUvarint(b, rec.Bans)
	return b
}

func decodePenaltyRecord(d *wal.Decoder) reputation.PenaltyRecord {
	return reputation.PenaltyRecord{
		ID:          core.PeerID(d.Str()),
		Seq:         d.Uvarint(),
		At:          d.Time(),
		Mis:         d.Float(),
		Contributed: d.Float(),
		Group:       d.Str(),
		Pressure:    d.Float(),
		BannedUntil: d.Time(),
		Identities:  int(d.Varint()),
		Bans:        d.Uvarint(),
	}
}

func appendCreditRecord(b []byte, rec *reputation.CreditRecord) []byte {
	b = wal.AppendString(b, string(rec.ID))
	b = wal.AppendUvarint(b, rec.Seq)
	b = wal.AppendFloat(b, rec.Trust)
	return b
}

func decodeCreditRecord(d *wal.Decoder) reputation.CreditRecord {
	return reputation.CreditRecord{
		ID:    core.PeerID(d.Str()),
		Seq:   d.Uvarint(),
		Trust: d.Float(),
	}
}

// Record is one decoded WAL entry — a tagged union over the six kinds.
type Record struct {
	Kind byte

	// recMisbehave
	Misbehavior core.BanRecord

	// recBan / recForget / recGood
	Peer  core.PeerID
	Until time.Time // recBan: absolute expiry
	Total int       // recGood: post-state good score

	// recPenalty / recCredit
	Penalty reputation.PenaltyRecord
	Credit  reputation.CreditRecord
}

// decodeRecord decodes one framed payload (kind byte + fields).
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, wal.ErrCorrupt
	}
	d := wal.NewDecoder(payload[1:])
	rec := Record{Kind: payload[0]}
	switch rec.Kind {
	case recMisbehave:
		rec.Misbehavior = decodeBanRecord(&d)
	case recBan:
		rec.Peer = core.PeerID(d.Str())
		rec.Until = d.Time()
	case recForget:
		rec.Peer = core.PeerID(d.Str())
	case recGood:
		rec.Peer = core.PeerID(d.Str())
		rec.Total = int(d.Varint())
	case recPenalty:
		rec.Penalty = decodePenaltyRecord(&d)
	case recCredit:
		rec.Credit = decodeCreditRecord(&d)
	default:
		return Record{}, wal.ErrCorrupt
	}
	if err := d.Err(); err != nil {
		return Record{}, err
	}
	return rec, nil
}
