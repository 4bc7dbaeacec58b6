package banstore

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"banscore/internal/core"
	"banscore/internal/wal"
)

// readFrame returns the payload length and payload of the frame at off.
func readFrame(b []byte, off int) (int, []byte) {
	plen := int(binary.LittleEndian.Uint32(b[off:]))
	return plen, b[off+wal.FrameOverhead : off+wal.FrameOverhead+plen]
}

// BenchmarkWALAppend measures the hot-path cost a scoring call pays for
// durability: encode + frame into the group-commit buffer under the store
// mutex. The background writer and fsync are off the path by design; this
// is the number that must stay invisible next to the tracker's own
// shard-lock work.
func BenchmarkWALAppend(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	rec := core.BanRecord{
		Seq: 1, At: time.Unix(1700000000, 0), Peer: "203.0.113.7:8333",
		RuleID: core.AddrOversize, Rule: "AddrOversize", Delta: 20, Score: 40,
		Command: "addr", PayloadDigest: 0xdeadbeef, PayloadLen: 40961,
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			s.AppendMisbehavior(rec)
		}
	})
}

// BenchmarkBanScoreParallelPersist is core's BenchmarkBanScoreParallel
// shape — distinct peers scoring concurrently — with the WAL attached
// through the same OnRecord hook the node installs. It pins the acceptance
// invariant that persistence stays off the misbehavior hot path: the
// number must sit within the benchdiff gate next to the store-less
// tracker, because the hook only encodes into the group-commit buffer and
// the writer runs behind it. FsyncNone keeps fsync scheduling noise out of
// the measurement (the framed write path is identical); fsync cost is off
// the append path by construction under every policy.
func BenchmarkBanScoreParallelPersist(b *testing.B) {
	s, _, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	tr := core.NewTracker(core.Config{
		Mode: core.ModeThresholdInfinity,
		OnRecord: func(rec core.BanRecord) {
			s.AppendMisbehavior(rec)
		},
	})
	var worker atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		id := core.PeerID(fmt.Sprintf("[10.77.0.%d]:8333", worker.Add(1)))
		for pb.Next() {
			tr.MisbehavingCtx(id, true, core.VersionDuplicate, core.MisbehaviorContext{})
		}
	})
}

// BenchmarkRecovery measures WAL replay throughput: decoding framed
// records from an in-memory log image and applying them to the forensics
// ledger and score map — the per-window cost of every restart. File I/O is
// excluded on purpose; recovery reads each segment once and the interesting
// cost is decode+apply.
func BenchmarkRecovery(b *testing.B) {
	const records = 64
	var log []byte
	at := time.Unix(1700000000, 0)
	for i := 0; i < records; i++ {
		rec := core.BanRecord{
			Seq: uint64(i + 1), At: at, Peer: "203.0.113.7:8333",
			RuleID: core.AddrOversize, Rule: "AddrOversize", Delta: 20,
			Score: 20 * (i + 1), Command: "addr",
		}
		start := len(log)
		log = append(log, 0, 0, 0, 0, 0, 0, 0, 0)
		log = append(log, recMisbehave)
		log = appendBanRecord(log, &rec)
		wal.SealFrame(log, start)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ledger := core.NewLedger(0, 0)
		scores := make(map[core.PeerID]int)
		off := 0
		for off < len(log) {
			plen, payload := readFrame(log, off)
			rec, err := decodeRecord(payload)
			if err != nil {
				b.Fatal(err)
			}
			scores[rec.Misbehavior.Peer] = rec.Misbehavior.Score
			ledger.Restore(rec.Misbehavior)
			off += wal.FrameOverhead + plen
		}
		if len(scores) != 1 || ledger.Total() != records {
			b.Fatal("replay dropped records")
		}
	}
}
