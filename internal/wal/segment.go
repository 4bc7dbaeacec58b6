package wal

import (
	"os"
	"path/filepath"
)

// Segment lifecycle. A store directory holds wal-<startLSN>.log segments
// and snap-<lsn>.snap snapshots; record LSNs are implicit (segment start
// plus index), so a segment is only ever begun at the LSN frontier. fsync
// selects whether files and the directory are flushed at each step.

// CreateSegment opens the segment that starts at startLSN for appending,
// writing its header when the file is new. A segment with that start can
// already exist — a previous run began it and never appended, or recovery
// truncated it back to its header — and is then reused as is.
func CreateSegment(dir string, magic []byte, startLSN uint64, fsync bool) (*os.File, error) {
	path := filepath.Join(dir, segmentFileName(startLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if os.IsExist(err) {
		return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(segmentHeader(magic, startLSN)); err != nil {
		_ = f.Close()
		return nil, err
	}
	if fsync {
		syncDir(dir)
	}
	return f, nil
}

// RotateSegment flushes and closes old (nil when the store has no active
// segment) and begins the segment at startLSN. The caller must have written
// every record below startLSN to old first. On error old is closed and no
// segment is active.
func RotateSegment(old *os.File, dir string, magic []byte, startLSN uint64, fsync bool) (*os.File, error) {
	if old != nil {
		var err error
		if fsync {
			err = old.Sync()
		}
		if cerr := old.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	return CreateSegment(dir, magic, startLSN, fsync)
}

// WriteSnapshot durably writes the snapshot file covering through lsn: tmp
// file, optional fsync, rename, optional directory fsync. A crash mid-write
// leaves the previous generation intact.
func WriteSnapshot(dir string, magic []byte, lsn uint64, payload []byte, fsync bool) error {
	path := filepath.Join(dir, snapshotFileName(lsn))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(encodeSnapshotFile(magic, lsn, payload)); err != nil {
		_ = f.Close()
		return err
	}
	if fsync {
		if err = f.Sync(); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	if fsync {
		syncDir(dir)
	}
	return nil
}

// Prune drops snapshot generations beyond the newest keep, then removes
// WAL segments every record of which is at or below the OLDEST retained
// snapshot's LSN (a segment's last LSN is the next segment's start minus
// one, so the newest segment always stays). Coverage is judged against the
// oldest generation on purpose: if the newest snapshot turns out corrupt at
// recovery, the fallback generation still has the complete WAL tail it
// needs to catch up.
func Prune(dir string, keep int, fsync bool) {
	segs, snaps, err := ScanDir(dir)
	if err != nil || len(snaps) == 0 {
		return
	}
	if len(snaps) > keep {
		for _, sn := range snaps[:len(snaps)-keep] {
			_ = os.Remove(sn.Path)
		}
		snaps = snaps[len(snaps)-keep:]
	}
	cover := snaps[0].Start
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].Start-1 <= cover {
			_ = os.Remove(segs[i].Path)
		}
	}
	if fsync {
		syncDir(dir)
	}
}
