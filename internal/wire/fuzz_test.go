package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
)

// versionUserAgentAt is where a VERSION payload's user-agent length starts:
// version 4 + services 8 + timestamp 8 + two 26-byte addresses + nonce 8.
const versionUserAgentAt = 4 + 8 + 8 + 2*(maxNetAddressPayload-4) + 8

// fuzzVersionPayload encodes testVersion() after mutate has had its say.
func fuzzVersionPayload(tb testing.TB, mutate func(*MsgVersion)) []byte {
	tb.Helper()
	v := testVersion()
	if mutate != nil {
		mutate(v)
	}
	var buf bytes.Buffer
	if err := v.BtcEncode(&buf, ProtocolVersion); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// decodeErrClass folds a decode error into what the peer's read loop can tell
// apart: none, a clean or a mid-value end of payload, a protocol violation.
func decodeErrClass(err error) string {
	var mErr *MessageError
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, io.EOF):
		return "EOF"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "ErrUnexpectedEOF"
	case errors.As(err, &mErr):
		return "MessageError"
	}
	return "other: " + err.Error()
}

// FuzzVersionDecodeReuse holds the codec's allocation-free path to the plain
// one: decoding payload b into a target that has already decoded payload a
// (whatever a left behind, error or not) through the payloadReader fast paths
// must classify b, and on success read and re-encode it, exactly as a fresh
// target fed from an ordinary io.Reader does — and must keep no slice of b.
// The f.Add seeds are one payload each after a valid one: with and without
// the relay byte, cut at every offset, the user agent at and over its cap, a
// non-canonical length, IPv4-mapped and all-zero addresses. The committed
// corpus (testdata/fuzz/FuzzVersionDecodeReuse) holds the transitions where
// the first decode is the interesting half.
func FuzzVersionDecodeReuse(f *testing.F) {
	valid := fuzzVersionPayload(f, nil)
	f.Add(valid, valid)
	f.Add(valid, fuzzVersionPayload(f, func(v *MsgVersion) { v.DisableRelay = true }))
	for cut := 0; cut < len(valid); cut++ {
		f.Add(valid, valid[:cut])
	}
	f.Add(valid, fuzzVersionPayload(f, func(v *MsgVersion) { v.UserAgent = string(make([]byte, MaxUserAgentLen)) }))
	overlong := append([]byte(nil), valid[:versionUserAgentAt]...)
	overlong = append(overlong, 0xfd, 0x01, 0x01) // CompactSize 257
	overlong = append(overlong, make([]byte, MaxUserAgentLen+1+4+1)...)
	f.Add(valid, overlong)
	nonCanonical := append([]byte(nil), valid[:versionUserAgentAt]...)
	nonCanonical = append(nonCanonical, 0xfd)
	nonCanonical = binary.LittleEndian.AppendUint16(nonCanonical, uint16(valid[versionUserAgentAt]))
	nonCanonical = append(nonCanonical, valid[versionUserAgentAt+1:]...)
	f.Add(valid, nonCanonical)
	f.Add(valid, fuzzVersionPayload(f, func(v *MsgVersion) {
		v.AddrMe.IP = net.IPv4(192, 0, 2, 7).To4() // encoded IPv4-mapped
		v.AddrYou.IP = nil                         // encoded as 16 zero bytes
	}))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var reused MsgVersion
		var pr payloadReader
		pr.reset(a)
		_ = reused.BtcDecode(&pr, ProtocolVersion)
		pr.reset(b)
		gotErr := reused.BtcDecode(&pr, ProtocolVersion)

		var fresh MsgVersion
		wantErr := fresh.BtcDecode(bytes.NewReader(bytes.Clone(b)), ProtocolVersion)
		if got, want := decodeErrClass(gotErr), decodeErrClass(wantErr); got != want {
			t.Fatalf("reused target: %s (%v), fresh target: %s (%v)", got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			return
		}
		// The payload is a pooled buffer its owner recycles after dispatch:
		// nothing the target holds may still point into it.
		for i := range b {
			b[i] = 0xdb
		}
		if !reflect.DeepEqual(&reused, &fresh) {
			t.Fatalf("reused target decoded\n %+v\nfresh target\n %+v", reused, fresh)
		}
		var gotBytes, wantBytes bytes.Buffer
		if err := reused.BtcEncode(&gotBytes, ProtocolVersion); err != nil {
			t.Fatal(err)
		}
		if err := fresh.BtcEncode(&wantBytes, ProtocolVersion); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("reused target re-encodes as %x, fresh target as %x", gotBytes.Bytes(), wantBytes.Bytes())
		}
	})
}
