package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/truncation.golden from this commit's decoders")

// canonicalCase is one well-formed payload under its command.
type canonicalCase struct {
	name    string
	command string
	payload []byte
}

// canonicalCases returns the canonical encoding of each of the 26 message
// types, with the variants whose wire form differs: TX with and without
// witness data, VERSION with and without the relay byte, REJECT with and
// without the hash. Payloads come from EncodeMessage, whose signature the
// frame layer keeps, so this file runs unchanged on the commit that wrote the
// golden file.
func canonicalCases(tb testing.TB) []canonicalCase {
	tb.Helper()
	h1, h2, stop := testHash(1), testHash(2), testHash(9)

	addr := NewMsgAddr()
	for i := 0; i < 2; i++ {
		na := NewNetAddressIPPort(net.IPv4(10, 0, 0, byte(i+1)), 8333, SFNodeNetwork)
		na.Timestamp = time.Unix(1700000000+int64(i), 0)
		addr.AddAddress(na)
	}
	inv, getData, notFound := NewMsgInv(), NewMsgGetData(), NewMsgNotFound()
	for _, m := range []interface{ AddInvVect(*InvVect) }{inv, getData, notFound} {
		m.AddInvVect(NewInvVect(InvTypeTx, &h1))
		m.AddInvVect(NewInvVect(InvTypeWitnessBlock, &h2))
	}
	getBlocks, getHeaders := NewMsgGetBlocks(&stop), NewMsgGetHeaders()
	for _, m := range []*locatorMessage{&getBlocks.locatorMessage, &getHeaders.locatorMessage} {
		_ = m.AddBlockLocatorHash(&h1)
		_ = m.AddBlockLocatorHash(&h2)
	}
	headers := NewMsgHeaders()
	headers.AddBlockHeader(testHeader(1))
	headers.AddBlockHeader(testHeader(2))
	witnessTx := testTx(3)
	witnessTx.TxIn[0].Witness = TxWitness{[]byte{1, 2, 3}, {}, []byte{4}}
	block := NewMsgBlock(testHeader(1))
	block.AddTransaction(testTx(1))
	block.AddTransaction(witnessTx)
	merkle := NewMsgMerkleBlock(testHeader(1))
	merkle.Transactions = 7
	_ = merkle.AddTxHash(&h1)
	_ = merkle.AddTxHash(&h2)
	merkle.Flags = []byte{0b1011}
	cmpct := NewMsgCmpctBlock(testHeader(4))
	cmpct.Nonce = 777
	cmpct.ShortIDs = []uint64{0xaabbccddeeff, 1, 0xffffffffffff}
	cmpct.PrefilledTxs = []*PrefilledTx{{Index: 0, Tx: testTx(1)}, {Index: 300, Tx: witnessTx}}
	rejectBlock := NewMsgReject(CmdBlock, RejectInvalid, "invalid block")
	rejectBlock.Hash = h1

	msgs := []struct {
		name string
		msg  Message
	}{
		{"version", testVersion()},
		{"verack", &MsgVerAck{}},
		{"addr", addr},
		{"getaddr", &MsgGetAddr{}},
		{"inv", inv},
		{"getdata", getData},
		{"notfound", notFound},
		{"getblocks", getBlocks},
		{"getheaders", getHeaders},
		{"headers", headers},
		{"tx", testTx(1)},
		{"tx/witness", witnessTx},
		{"block", block},
		{"mempool", &MsgMemPool{}},
		{"ping", NewMsgPing(12345)},
		{"pong", NewMsgPong(12345)},
		{"reject", NewMsgReject(CmdVersion, RejectDuplicate, "duplicate version")},
		{"reject/hash", rejectBlock},
		{"filterload", NewMsgFilterLoad(bytes.Repeat([]byte{0xaa}, 8), 11, 42, BloomUpdateAll)},
		{"filteradd", NewMsgFilterAdd([]byte{1, 2, 3})},
		{"filterclear", &MsgFilterClear{}},
		{"merkleblock", merkle},
		{"sendheaders", &MsgSendHeaders{}},
		{"feefilter", NewMsgFeeFilter(1000)},
		{"sendcmpct", NewMsgSendCmpct(true, 2)},
		{"cmpctblock", cmpct},
		{"getblocktxn", NewMsgGetBlockTxn(&h1, []uint32{0, 1, 5, 300})},
		{"blocktxn", NewMsgBlockTxn(&h1, []*MsgTx{testTx(1), witnessTx})},
	}
	var cases []canonicalCase
	for _, m := range msgs {
		buf, err := EncodeMessage(m.msg, ProtocolVersion, MainNet)
		if err != nil {
			tb.Fatalf("EncodeMessage(%s): %v", m.name, err)
		}
		payload := bytes.Clone(buf.Bytes()[MessageHeaderSize:])
		buf.Release()
		cases = append(cases, canonicalCase{m.name, m.msg.Command(), payload})
		if m.name == "version" {
			// Old peers omit the trailing relay byte.
			cases = append(cases, canonicalCase{"version/no-relay-byte", CmdVersion, payload[:len(payload)-1]})
		}
	}
	return cases
}

// frame wraps payload in a header with a correct checksum: the decoder, not
// the frame layer, is what gets to judge it.
func frame(tb testing.TB, command string, payload []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := WriteRawMessage(&buf, command, payload, MainNet); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// decodeClass folds the outcome of decoding a correctly framed payload into
// the three things a peer can do with it: dispatch it, or close the
// connection over a payload that ended early (io.EOF at a field boundary,
// io.ErrUnexpectedEOF inside one — the peer layer closes on either and scores
// neither, so they are one class) or over a protocol violation.
func decodeClass(err error) string {
	var mErr *MessageError
	switch {
	case err == nil:
		return "decoded"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return "short"
	case errors.As(err, &mErr):
		return "malformed"
	}
	return "other(" + err.Error() + ")"
}

// TestTruncationMatrix pins what every decoder makes of a payload that stops
// early. Each canonical payload is cut at every byte offset, framed with a
// correct checksum and put through Codec.DecodeMessage; the outcome class per
// (case, offset) must match testdata/truncation.golden, which was generated
// (-update-golden) by commit a0d64f1 — the last whose codecs read through
// io.Reader — and has not been edited since.
func TestTruncationMatrix(t *testing.T) {
	var got strings.Builder
	var codec Codec
	var rd bytes.Reader
	for _, c := range canonicalCases(t) {
		fmt.Fprintf(&got, "%s:", c.name)
		runStart, runClass := 0, ""
		for cut := 0; cut <= len(c.payload); cut++ {
			rd.Reset(frame(t, c.command, c.payload[:cut]))
			_, buf, err := codec.DecodeMessage(&rd, ProtocolVersion, MainNet, nil)
			if buf == nil {
				t.Fatalf("%s cut at %d: rejected by the frame layer: %v", c.name, cut, err)
			}
			buf.Release()
			class := decodeClass(err)
			if class != runClass {
				if runClass != "" {
					fmt.Fprintf(&got, " %s[%d,%d]", runClass, runStart, cut-1)
				}
				runStart, runClass = cut, class
			}
		}
		fmt.Fprintf(&got, " %s[%d,%d]\n", runClass, runStart, len(c.payload))
	}

	const golden = "testdata/truncation.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("truncation outcomes differ from %s (offset ranges are inclusive)\n got:\n%s\nwant:\n%s", golden, got.String(), want)
	}
}
