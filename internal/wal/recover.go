package wal

import "os"

// Recovery is what Recover salvaged from a store directory.
type Recovery struct {
	// LastLSN is the highest LSN recovered (snapshot or record); the next
	// record appended is LastLSN+1.
	LastLSN uint64

	// SnapshotLSN is the LSN the recovered snapshot covers through (0 when
	// none survived).
	SnapshotLSN uint64

	// Truncations counts corruption events handled: torn or corrupt
	// records truncated away, unreachable segments deleted, corrupt
	// snapshot generations skipped.
	Truncations uint64
}

// Recover walks the store directory dir (created if missing) in two steps:
//
//  1. Snapshots, newest first: the first whose header, CRC and onSnapshot
//     decode all check out is the base state. Corrupt generations are
//     counted and skipped — the previous one is still on disk because
//     snapshot writes are tmp+rename atomic. onSnapshot must leave no
//     partial state behind when it returns an error.
//  2. Segments, oldest first: each CRC-valid payload goes to onRecord. The
//     first torn or corrupt frame, or payload onRecord rejects, ends the
//     log: the segment is truncated there, later segments are deleted
//     (their LSNs are unreachable once the log has a hole) and the event is
//     counted. A segment whose header is unreadable or disagrees with its
//     file name, or that starts past the recovered frontier, is such a hole
//     too.
//
// Records the snapshot already covers are replayed as well; callers apply
// them idempotently. Corruption is data loss to bound, never a reason to
// refuse to start: only I/O errors on the directory itself are returned.
// The caller then begins a fresh segment at LastLSN+1, so implicit record
// numbering (segment start plus index) stays exact even when the snapshot
// outruns the log or the old tail was truncated.
func Recover(dir string, walMagic, snapMagic []byte,
	onSnapshot, onRecord func(payload []byte) error) (Recovery, error) {
	var res Recovery
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	segs, snaps, err := ScanDir(dir)
	if err != nil {
		return res, err
	}

	haveSnap := false
	for i := len(snaps) - 1; i >= 0 && !haveSnap; i-- {
		b, err := os.ReadFile(snaps[i].Path)
		if err == nil {
			b, err = decodeSnapshotFile(snapMagic, snaps[i].Start, b)
		}
		if err == nil {
			err = onSnapshot(b)
		}
		if err != nil {
			res.Truncations++
			continue
		}
		res.SnapshotLSN, res.LastLSN = snaps[i].Start, snaps[i].Start
		haveSnap = true
	}

	for i, seg := range segs {
		b, err := os.ReadFile(seg.Path)
		hdr := 0
		if err == nil {
			hdr, err = parseSegmentHeader(walMagic, seg.Start, b)
		}
		// Without a snapshot the log starts wherever its oldest surviving
		// segment does: a store that lost every snapshot generation still
		// salvages its pruned tail.
		hole := seg.Start > res.LastLSN+1 && (haveSnap || i > 0)
		if err != nil || hole {
			res.Truncations++
			for _, later := range segs[i:] {
				_ = os.Remove(later.Path)
			}
			break
		}
		count, good, clean := scanFrames(b[hdr:], onRecord)
		if last := seg.Start + count - 1; count > 0 && last > res.LastLSN {
			res.LastLSN = last
		}
		if !clean {
			res.Truncations++
			_ = os.Truncate(seg.Path, int64(hdr)+good)
			for _, later := range segs[i+1:] {
				res.Truncations++
				_ = os.Remove(later.Path)
			}
			break
		}
	}
	return res, nil
}
