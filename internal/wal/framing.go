// Package wal is the byte-level durability layer under the node's ban store
// (internal/banstore) and the fleet observer's event store
// (internal/observer): CRC32C record frames, segment and snapshot files, the
// binary field codec, one recovery loop and one segment lifecycle. What a
// record means and how appends are buffered stay with the stores, so both
// crash suites exercise one set of corruption semantics: truncate at the
// first bad frame, never refuse to open.
//
// The package holds no locks, starts no goroutines and reads no clock (the
// banlint lockorder, gospawn and wallclock analyzers have it in scope); its
// callers serialize access to a directory.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FrameOverhead is the per-record framing cost: u32 LE payload length plus
// u32 LE CRC32C of the payload.
const FrameOverhead = 8

// maxFramePayload bounds a single frame's payload; a larger length prefix
// in a log is corruption, not data.
const maxFramePayload = 1 << 24

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode failures. Recovery never surfaces them: a file that fails to parse
// is truncated or skipped and counted.
var (
	ErrCorrupt   = errors.New("wal: corrupt record")
	errBadHeader = errors.New("wal: bad file header")
)

// AppendFrame appends one framed record to dst and returns the extended
// slice: [u32 LE len][u32 LE CRC32C(payload)][payload].
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
	return append(dst, payload...)
}

// SealFrame completes a frame encoded in place: the caller reserved
// FrameOverhead bytes at b[start:] and appended the payload after them, so
// the payload runs to the end of b. It returns the frame's total size.
func SealFrame(b []byte, start int) int {
	payload := b[start+FrameOverhead:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, castagnoli))
	return FrameOverhead + len(payload)
}

// scanFrames walks the framed records in b (no file header), invoking fn on
// each CRC-valid payload. It stops at the first torn or corrupt frame — or
// the first fn error, which callers use to reject schema-invalid payloads —
// and returns how many frames fn accepted, how many bytes of b they span,
// and whether the buffer ended cleanly (false means good is a truncation
// point).
func scanFrames(b []byte, fn func(payload []byte) error) (count uint64, good int64, clean bool) {
	off := 0
	for ; ; count++ {
		if off == len(b) {
			return count, int64(off), true
		}
		if off+FrameOverhead > len(b) {
			return count, int64(off), false // torn frame header
		}
		plen := int(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		if plen <= 0 || plen > maxFramePayload || off+FrameOverhead+plen > len(b) {
			return count, int64(off), false // torn/insane length
		}
		payload := b[off+FrameOverhead : off+FrameOverhead+plen]
		if crc32.Checksum(payload, castagnoli) != crc {
			return count, int64(off), false // bit flip
		}
		if err := fn(payload); err != nil {
			return count, int64(off), false // valid CRC, bad schema
		}
		off += FrameOverhead + plen
	}
}

// segmentHeader renders a WAL segment header: magic then u64 LE startLSN.
func segmentHeader(magic []byte, startLSN uint64) []byte {
	hdr := make([]byte, 0, len(magic)+8)
	hdr = append(hdr, magic...)
	return binary.LittleEndian.AppendUint64(hdr, startLSN)
}

// parseSegmentHeader validates b's magic and that its startLSN — which no
// CRC covers — is the one the file name promised, and returns the header
// length (where frame scanning begins).
func parseSegmentHeader(magic []byte, startLSN uint64, b []byte) (hdrLen int, err error) {
	hdrLen = len(magic) + 8
	if len(b) < hdrLen || string(b[:len(magic)]) != string(magic) ||
		binary.LittleEndian.Uint64(b[len(magic):]) != startLSN {
		return 0, errBadHeader
	}
	return hdrLen, nil
}

// encodeSnapshotFile renders a complete snapshot file image: magic, u64 LE
// LSN, u32 LE payload length, u32 LE CRC32C(payload), payload.
func encodeSnapshotFile(magic []byte, lsn uint64, payload []byte) []byte {
	buf := make([]byte, 0, len(magic)+16+len(payload))
	buf = append(buf, magic...)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// decodeSnapshotFile validates a snapshot file image — magic, the covered
// LSN the file name promised (no CRC covers it), length, CRC — and returns
// its payload.
func decodeSnapshotFile(magic []byte, lsn uint64, b []byte) (payload []byte, err error) {
	hdr := len(magic) + 16
	if len(b) < hdr || string(b[:len(magic)]) != string(magic) ||
		binary.LittleEndian.Uint64(b[len(magic):]) != lsn {
		return nil, errBadHeader
	}
	plen := binary.LittleEndian.Uint32(b[len(magic)+8:])
	crc := binary.LittleEndian.Uint32(b[len(magic)+12:])
	payload = b[hdr:]
	if uint64(plen) != uint64(len(payload)) || crc32.Checksum(payload, castagnoli) != crc {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// segmentFileName returns the on-disk name of the WAL segment whose first
// record carries startLSN.
func segmentFileName(startLSN uint64) string { return fmt.Sprintf("wal-%016x.log", startLSN) }

// snapshotFileName returns the on-disk name of the snapshot covering
// through lsn.
func snapshotFileName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// File is one WAL segment or snapshot located by ScanDir.
type File struct {
	Path  string
	Start uint64 // segment startLSN, or snapshot covered LSN
}

// ScanDir lists a store directory's WAL segments (ascending startLSN) and
// snapshots (ascending covered LSN). Other files are ignored.
func ScanDir(dir string) (segs, snaps []File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if n, ok := lsnInName(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, File{Path: path, Start: n})
		} else if n, ok := lsnInName(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, File{Path: path, Start: n})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Start < segs[j].Start })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Start < snaps[j].Start })
	return segs, snaps, nil
}

// lsnInName parses the hex LSN between prefix and suffix.
func lsnInName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return n, err == nil
}

// syncDir fsyncs dir so renames, creates and removes in it are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
