package main

import (
	"bytes"
	"errors"
	"fmt"

	"banscore/internal/wire"
)

// probeLegacyRead times the allocating wire.ReadMessage over the same
// frames as wire.decode. It sizes the deletion of the legacy codec path and
// moves nothing end to end; it lives in a file of its own so that deletion
// touches the benchmark in one place.
func (e *probeEnv) probeLegacyRead() error {
	var rd bytes.Reader
	var failed error
	e.loop("wire.legacy_read", e.s.count, func(i int) int {
		frame := e.s.frame(i)
		rd.Reset(frame)
		if _, _, err := wire.ReadMessage(&rd, wire.ProtocolVersion, wire.SimNet); err != nil && !errors.Is(err, wire.ErrChecksumMismatch) {
			failed = err
		}
		return len(frame)
	})
	if failed != nil {
		return fmt.Errorf("probe wire.legacy_read: %w", failed)
	}
	e.out["wire.legacy_read_ns_per_msg"] = e.rec.total("wire.legacy_read").nsPerMsg()
	return nil
}
