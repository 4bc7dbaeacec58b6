package wire

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"banscore/internal/chainhash"
)

// encodePayload returns msg's payload in memory the caller owns.
func encodePayload(tb testing.TB, msg Message) []byte {
	tb.Helper()
	buf := GetBuf(0)
	defer buf.Release()
	if err := msg.BtcEncode(buf, ProtocolVersion); err != nil {
		tb.Fatalf("BtcEncode(%s): %v", msg.Command(), err)
	}
	return bytes.Clone(buf.Bytes())
}

// roundTrip encodes msg, decodes it into a fresh message of the same
// command, and returns the decoded message.
func roundTrip(t *testing.T, msg Message) Message {
	t.Helper()
	out, err := makeEmptyMessage(msg.Command())
	if err != nil {
		t.Fatalf("makeEmptyMessage(%s): %v", msg.Command(), err)
	}
	if err := out.BtcDecode(encodePayload(t, msg), ProtocolVersion); err != nil {
		t.Fatalf("BtcDecode(%s): %v", msg.Command(), err)
	}
	return out
}

func testHash(b byte) chainhash.Hash {
	return chainhash.DoubleHashH([]byte{b})
}

func testHeader(b byte) *BlockHeader {
	prev := testHash(b)
	merkle := testHash(b + 1)
	return NewBlockHeader(1, &prev, &merkle, time.Unix(1700000000, 0), 0x207fffff, uint32(b))
}

func testTx(n int) *MsgTx {
	tx := NewMsgTx(TxVersion)
	prev := testHash(byte(n))
	tx.AddTxIn(NewTxIn(NewOutPoint(&prev, uint32(n)), []byte{0x51}, nil))
	tx.AddTxOut(NewTxOut(int64(n)*1000, []byte{0x51, 0x52}))
	return tx
}

func TestVersionRoundTrip(t *testing.T) {
	in := testVersion()
	out := roundTrip(t, in).(*MsgVersion)
	if out.ProtocolVersion != in.ProtocolVersion || out.Nonce != in.Nonce ||
		out.UserAgent != in.UserAgent || out.LastBlock != in.LastBlock ||
		out.Services != in.Services || !out.Timestamp.Equal(in.Timestamp) ||
		out.DisableRelay != in.DisableRelay {
		t.Errorf("version round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
	if !out.AddrMe.IP.Equal(in.AddrMe.IP) || out.AddrMe.Port != in.AddrMe.Port {
		t.Errorf("AddrMe mismatch: got %v:%d", out.AddrMe.IP, out.AddrMe.Port)
	}
}

func TestVersionOptionalRelay(t *testing.T) {
	in := testVersion()
	// Strip the trailing relay byte: old peers omit it.
	full := encodePayload(t, in)
	trimmed := full[:len(full)-1]
	var out MsgVersion
	if err := out.BtcDecode(trimmed, ProtocolVersion); err != nil {
		t.Fatalf("decode without relay byte: %v", err)
	}
	if out.DisableRelay {
		t.Error("missing relay byte should leave relay enabled")
	}

	// The same holds for a reused target: what it decoded last must not
	// stand in for the byte this payload omits.
	in.DisableRelay = true
	if err := out.BtcDecode(encodePayload(t, in), ProtocolVersion); err != nil {
		t.Fatal(err)
	}
	if !out.DisableRelay {
		t.Fatal("relay=false payload should disable relay")
	}
	if err := out.BtcDecode(trimmed, ProtocolVersion); err != nil {
		t.Fatalf("decode without relay byte into a reused target: %v", err)
	}
	if out.DisableRelay {
		t.Error("missing relay byte kept the reused target's relay=false")
	}
}

func TestVersionUserAgentTooLongOnEncode(t *testing.T) {
	in := testVersion()
	in.UserAgent = string(make([]byte, MaxUserAgentLen+1))
	buf := GetBuf(0)
	defer buf.Release()
	if err := in.BtcEncode(buf, ProtocolVersion); err == nil {
		t.Error("encode accepted oversize user agent")
	}
}

func TestVersionHasService(t *testing.T) {
	in := testVersion()
	if !in.HasService(SFNodeNetwork) {
		t.Error("expected SFNodeNetwork")
	}
	if in.HasService(SFNodeBloom) {
		t.Error("unexpected SFNodeBloom")
	}
}

func TestAddrRoundTrip(t *testing.T) {
	in := NewMsgAddr()
	for i := 0; i < 3; i++ {
		na := NewNetAddressIPPort(net.IPv4(10, 0, 0, byte(i+1)), 8333, SFNodeNetwork)
		na.Timestamp = time.Unix(1700000000+int64(i), 0)
		in.AddAddress(na)
	}
	out := roundTrip(t, in).(*MsgAddr)
	if len(out.AddrList) != 3 {
		t.Fatalf("addr count = %d, want 3", len(out.AddrList))
	}
	for i, na := range out.AddrList {
		if !na.IP.Equal(in.AddrList[i].IP) || na.Port != in.AddrList[i].Port ||
			!na.Timestamp.Equal(in.AddrList[i].Timestamp) {
			t.Errorf("addr %d mismatch: %+v", i, na)
		}
	}
}

func TestAddrOversizeDecodesForScoring(t *testing.T) {
	// An ADDR with MaxAddrPerMsg+1 entries must DECODE successfully; the
	// node scores it (+20) rather than the wire layer rejecting it.
	in := NewMsgAddr()
	na := NewNetAddressIPPort(net.IPv4(10, 0, 0, 1), 8333, SFNodeNetwork)
	for i := 0; i < MaxAddrPerMsg+1; i++ {
		in.AddAddress(na)
	}
	out := roundTrip(t, in).(*MsgAddr)
	if len(out.AddrList) != MaxAddrPerMsg+1 {
		t.Errorf("oversize addr decoded %d entries, want %d", len(out.AddrList), MaxAddrPerMsg+1)
	}
}

func TestInvLikeRoundTrip(t *testing.T) {
	build := func(m interface{ AddInvVect(*InvVect) }) {
		h1, h2 := testHash(1), testHash(2)
		m.AddInvVect(NewInvVect(InvTypeTx, &h1))
		m.AddInvVect(NewInvVect(InvTypeBlock, &h2))
	}
	msgs := []Message{NewMsgInv(), NewMsgGetData(), NewMsgNotFound()}
	for _, m := range msgs {
		build(m.(interface{ AddInvVect(*InvVect) }))
		out := roundTrip(t, m)
		var invList []*InvVect
		switch v := out.(type) {
		case *MsgInv:
			invList = v.InvList
		case *MsgGetData:
			invList = v.InvList
		case *MsgNotFound:
			invList = v.InvList
		}
		if len(invList) != 2 || invList[0].Type != InvTypeTx || invList[1].Type != InvTypeBlock {
			t.Errorf("%s round trip mismatch: %+v", m.Command(), invList)
		}
	}
}

func TestInvOversizeDecodesForScoring(t *testing.T) {
	in := NewMsgInv()
	h := testHash(1)
	iv := NewInvVect(InvTypeTx, &h)
	for i := 0; i < MaxInvPerMsg+1; i++ {
		in.AddInvVect(iv)
	}
	out := roundTrip(t, in).(*MsgInv)
	if len(out.InvList) != MaxInvPerMsg+1 {
		t.Errorf("oversize inv decoded %d entries, want %d", len(out.InvList), MaxInvPerMsg+1)
	}
}

func TestInvTypeString(t *testing.T) {
	if InvTypeTx.String() != "MSG_TX" || InvTypeBlock.String() != "MSG_BLOCK" {
		t.Error("known inv types misnamed")
	}
	if InvType(99).String() != "Unknown InvType (99)" {
		t.Errorf("unknown inv type = %q", InvType(99).String())
	}
}

func TestGetBlocksGetHeadersRoundTrip(t *testing.T) {
	stop := testHash(9)
	gb := NewMsgGetBlocks(&stop)
	h1, h2 := testHash(1), testHash(2)
	if err := gb.AddBlockLocatorHash(&h1); err != nil {
		t.Fatal(err)
	}
	if err := gb.AddBlockLocatorHash(&h2); err != nil {
		t.Fatal(err)
	}
	out := roundTrip(t, gb).(*MsgGetBlocks)
	if len(out.BlockLocatorHashes) != 2 || out.HashStop != stop {
		t.Errorf("getblocks round trip mismatch: %+v", out)
	}

	gh := NewMsgGetHeaders()
	if err := gh.AddBlockLocatorHash(&h1); err != nil {
		t.Fatal(err)
	}
	out2 := roundTrip(t, gh).(*MsgGetHeaders)
	if len(out2.BlockLocatorHashes) != 1 || *out2.BlockLocatorHashes[0] != h1 {
		t.Errorf("getheaders round trip mismatch: %+v", out2)
	}
}

func TestLocatorCapEnforced(t *testing.T) {
	gh := NewMsgGetHeaders()
	h := testHash(1)
	for i := 0; i < MaxBlockLocatorsPerMsg; i++ {
		if err := gh.AddBlockLocatorHash(&h); err != nil {
			t.Fatal(err)
		}
	}
	if err := gh.AddBlockLocatorHash(&h); err == nil {
		t.Error("locator cap not enforced on add")
	}
}

func TestHeadersRoundTrip(t *testing.T) {
	in := NewMsgHeaders()
	in.AddBlockHeader(testHeader(1))
	in.AddBlockHeader(testHeader(2))
	out := roundTrip(t, in).(*MsgHeaders)
	if len(out.Headers) != 2 {
		t.Fatalf("header count = %d, want 2", len(out.Headers))
	}
	if out.Headers[0].BlockHash() != in.Headers[0].BlockHash() {
		t.Error("header 0 hash mismatch after round trip")
	}
}

func TestHeadersOversizeDecodesForScoring(t *testing.T) {
	in := NewMsgHeaders()
	hdr := testHeader(1)
	for i := 0; i < MaxBlockHeadersPerMsg+1; i++ {
		in.AddBlockHeader(hdr)
	}
	out := roundTrip(t, in).(*MsgHeaders)
	if len(out.Headers) != MaxBlockHeadersPerMsg+1 {
		t.Errorf("oversize headers decoded %d, want %d", len(out.Headers), MaxBlockHeadersPerMsg+1)
	}
}

func TestHeadersRejectNonZeroTxCount(t *testing.T) {
	in := NewMsgHeaders()
	in.AddBlockHeader(testHeader(1))
	payload := encodePayload(t, in)
	payload[len(payload)-1] = 5 // non-zero tx count is malformed
	var out MsgHeaders
	var mErr *MessageError
	if err := out.BtcDecode(payload, ProtocolVersion); !errors.As(err, &mErr) {
		t.Errorf("headers with non-zero tx count: %v, want MessageError", err)
	}
}

func TestTxRoundTripAndHash(t *testing.T) {
	in := testTx(1)
	out := roundTrip(t, in).(*MsgTx)
	if out.TxHash() != in.TxHash() {
		t.Error("tx hash changed across round trip")
	}
	if !reflect.DeepEqual(out.TxOut[0], in.TxOut[0]) {
		t.Errorf("txout mismatch: %+v vs %+v", out.TxOut[0], in.TxOut[0])
	}
}

func TestTxWitnessRoundTrip(t *testing.T) {
	in := testTx(3)
	in.TxIn[0].Witness = TxWitness{[]byte{1, 2, 3}, []byte{4}}
	if !in.HasWitness() {
		t.Fatal("witness not detected")
	}
	out := roundTrip(t, in).(*MsgTx)
	if !out.HasWitness() || len(out.TxIn[0].Witness) != 2 {
		t.Fatalf("witness lost in round trip: %+v", out.TxIn[0].Witness)
	}
	if out.TxHash() != in.TxHash() {
		t.Error("txid must exclude witness data")
	}
	if out.WitnessHash() == out.TxHash() {
		t.Error("wtxid should differ from txid when witness present")
	}
	noWit := testTx(3)
	if noWit.WitnessHash() != noWit.TxHash() {
		t.Error("wtxid should equal txid without witness")
	}
}

// TestHashesAllocateNothing holds the three hashers to their pooled
// scratch buffer: each serializes into a GetBuf and must Release it, or
// every txid, wtxid and block hash the node computes costs an allocation.
// A dropped Release is invisible to the analyzer here (the buffer is
// handed to encode first) and to every functional test.
func TestHashesAllocateNothing(t *testing.T) {
	// Under the race detector sync.Pool drops a quarter of what it is given.
	if lossy := testing.AllocsPerRun(100, func() { GetBuf(0).Release() }); lossy > 0 {
		t.Skipf("the buffer pool is dropping buffers (%v allocations per trip)", lossy)
	}
	tx := testTx(1)
	tx.TxIn[0].Witness = TxWitness{[]byte{1, 2, 3}}
	hdr := testHeader(1)
	for name, hash := range map[string]func(){
		"TxHash":      func() { tx.TxHash() },
		"WitnessHash": func() { tx.WitnessHash() },
		"BlockHash":   func() { hdr.BlockHash() },
	} {
		if allocs := testing.AllocsPerRun(100, hash); allocs != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, allocs)
		}
	}
}

func TestTxSerializeSizeMatches(t *testing.T) {
	txs := []*MsgTx{testTx(1), testTx(2)}
	txs[1].TxIn[0].Witness = TxWitness{[]byte{9, 9}}
	for i, tx := range txs {
		if n := len(encodePayload(t, tx)); n != tx.SerializeSize() {
			t.Errorf("tx %d: SerializeSize = %d, actual %d", i, tx.SerializeSize(), n)
		}
	}
}

func TestTxCopyIsDeep(t *testing.T) {
	in := testTx(1)
	in.TxIn[0].Witness = TxWitness{[]byte{1}}
	cp := in.Copy()
	cp.TxIn[0].SignatureScript[0] = 0xff
	cp.TxIn[0].Witness[0][0] = 0xff
	cp.TxOut[0].PkScript[0] = 0xff
	if in.TxIn[0].SignatureScript[0] == 0xff || in.TxIn[0].Witness[0][0] == 0xff || in.TxOut[0].PkScript[0] == 0xff {
		t.Error("Copy shares backing arrays with the original")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	in := NewMsgBlock(testHeader(1))
	in.AddTransaction(testTx(1))
	in.AddTransaction(testTx(2))
	out := roundTrip(t, in).(*MsgBlock)
	if out.BlockHash() != in.BlockHash() {
		t.Error("block hash changed across round trip")
	}
	if len(out.Transactions) != 2 {
		t.Fatalf("tx count = %d, want 2", len(out.Transactions))
	}
	if got := out.SerializeSize(); got != in.SerializeSize() {
		t.Errorf("SerializeSize mismatch: %d vs %d", got, in.SerializeSize())
	}
	if n := len(encodePayload(t, in)); n != in.SerializeSize() {
		t.Errorf("SerializeSize = %d, actual %d", in.SerializeSize(), n)
	}
}

func TestBlockTxHashes(t *testing.T) {
	b := NewMsgBlock(testHeader(1))
	b.AddTransaction(testTx(1))
	b.AddTransaction(testTx(2))
	hashes := b.TxHashes()
	if len(hashes) != 2 || hashes[0] != b.Transactions[0].TxHash() {
		t.Error("TxHashes mismatch")
	}
	b.ClearTransactions()
	if len(b.TxHashes()) != 0 {
		t.Error("ClearTransactions did not clear")
	}
}

func TestBlockHeaderRoundTripProperty(t *testing.T) {
	f := func(version int32, prev, merkle [32]byte, ts uint32, bits, nonce uint32) bool {
		hdr := BlockHeader{
			Version:    version,
			PrevBlock:  chainhash.Hash(prev),
			MerkleRoot: chainhash.Hash(merkle),
			Timestamp:  time.Unix(int64(ts), 0),
			Bits:       bits,
			Nonce:      nonce,
		}
		buf := GetBuf(0)
		defer buf.Release()
		writeBlockHeader(buf, &hdr)
		if buf.Len() != BlockHeaderLen {
			return false
		}
		var out BlockHeader
		d := decoder{b: buf.Bytes()}
		readBlockHeader(&d, &out)
		return d.err == nil && d.remaining() == 0 && out.BlockHash() == hdr.BlockHash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	in := NewMsgReject(CmdBlock, RejectInvalid, "invalid block")
	in.Hash = testHash(5)
	out := roundTrip(t, in).(*MsgReject)
	if out.Cmd != in.Cmd || out.Code != in.Code || out.Reason != in.Reason || out.Hash != in.Hash {
		t.Errorf("reject round trip mismatch: %+v", out)
	}
	// Non-tx/block reject carries no hash.
	in2 := NewMsgReject(CmdVersion, RejectDuplicate, "dup version")
	out2 := roundTrip(t, in2).(*MsgReject)
	if out2.Hash != (chainhash.Hash{}) {
		t.Error("non-block reject decoded a hash")
	}
}

func TestRejectCodeString(t *testing.T) {
	if RejectInvalid.String() != "REJECT_INVALID" {
		t.Error("RejectInvalid misnamed")
	}
	if RejectCode(0xee).String() != "Unknown RejectCode (238)" {
		t.Errorf("unknown code = %q", RejectCode(0xee).String())
	}
}

func TestFilterLoadRoundTrip(t *testing.T) {
	in := NewMsgFilterLoad(bytes.Repeat([]byte{0xaa}, 64), 11, 42, BloomUpdateAll)
	out := roundTrip(t, in).(*MsgFilterLoad)
	if !bytes.Equal(out.Filter, in.Filter) || out.HashFuncs != 11 || out.Tweak != 42 || out.Flags != BloomUpdateAll {
		t.Errorf("filterload round trip mismatch: %+v", out)
	}
}

func TestFilterLoadOversizeDecodesForScoring(t *testing.T) {
	in := NewMsgFilterLoad(make([]byte, MaxFilterLoadFilterSize+1), 1, 0, BloomUpdateNone)
	out := roundTrip(t, in).(*MsgFilterLoad)
	if len(out.Filter) != MaxFilterLoadFilterSize+1 {
		t.Errorf("oversize filter decoded %d bytes", len(out.Filter))
	}
}

func TestFilterAddRoundTripAndOversize(t *testing.T) {
	in := NewMsgFilterAdd([]byte{1, 2, 3})
	out := roundTrip(t, in).(*MsgFilterAdd)
	if !bytes.Equal(out.Data, in.Data) {
		t.Error("filteradd round trip mismatch")
	}
	big := NewMsgFilterAdd(make([]byte, MaxFilterAddDataSize+1))
	out2 := roundTrip(t, big).(*MsgFilterAdd)
	if len(out2.Data) != MaxFilterAddDataSize+1 {
		t.Errorf("oversize filteradd decoded %d bytes", len(out2.Data))
	}
}

func TestMerkleBlockRoundTrip(t *testing.T) {
	in := NewMsgMerkleBlock(testHeader(1))
	in.Transactions = 7
	h := testHash(3)
	if err := in.AddTxHash(&h); err != nil {
		t.Fatal(err)
	}
	in.Flags = []byte{0b1011}
	out := roundTrip(t, in).(*MsgMerkleBlock)
	if out.Transactions != 7 || len(out.Hashes) != 1 || *out.Hashes[0] != h || !bytes.Equal(out.Flags, in.Flags) {
		t.Errorf("merkleblock round trip mismatch: %+v", out)
	}
}

func TestCmpctBlockRoundTrip(t *testing.T) {
	in := NewMsgCmpctBlock(testHeader(4))
	in.Nonce = 777
	in.ShortIDs = []uint64{0x0000aabbccddeeff & 0xffffffffffff, 1, 0xffffffffffff}
	in.PrefilledTxs = []*PrefilledTx{{Index: 0, Tx: testTx(1)}}
	out := roundTrip(t, in).(*MsgCmpctBlock)
	if out.Nonce != 777 || len(out.ShortIDs) != 3 || out.ShortIDs[2] != 0xffffffffffff {
		t.Errorf("cmpctblock round trip mismatch: %+v", out)
	}
	if len(out.PrefilledTxs) != 1 || out.PrefilledTxs[0].Tx.TxHash() != in.PrefilledTxs[0].Tx.TxHash() {
		t.Error("prefilled tx mismatch")
	}
	if out.Header.BlockHash() != in.Header.BlockHash() {
		t.Error("header mismatch")
	}
}

func TestGetBlockTxnDifferentialEncoding(t *testing.T) {
	h := testHash(6)
	in := NewMsgGetBlockTxn(&h, []uint32{0, 1, 5, 100})
	out := roundTrip(t, in).(*MsgGetBlockTxn)
	if !reflect.DeepEqual(out.Indexes, in.Indexes) {
		t.Errorf("indexes = %v, want %v", out.Indexes, in.Indexes)
	}
	if out.BlockHash != h {
		t.Error("block hash mismatch")
	}
}

// A differential index large enough to wrap the running offset must not
// decode to a descending — unencodable — index list.
func TestGetBlockTxnIndexOverflow(t *testing.T) {
	payload := put(func(w *Buf) {
		w.putBytes(make([]byte, 32))
		w.putVarInt(2)
		w.putVarInt(4)
		w.putVarInt(0xfffffffffffffffd) // 5 + this wraps to 2
	})
	var out MsgGetBlockTxn
	var mErr *MessageError
	if err := out.BtcDecode(payload, ProtocolVersion); !errors.As(err, &mErr) {
		t.Errorf("wrapping index decoded: %v, indexes %v", err, out.Indexes)
	}
}

func TestGetBlockTxnRejectsDescendingIndexes(t *testing.T) {
	h := testHash(6)
	in := NewMsgGetBlockTxn(&h, []uint32{5, 1})
	buf := GetBuf(0)
	defer buf.Release()
	if err := in.BtcEncode(buf, ProtocolVersion); err == nil {
		t.Error("descending indexes encoded")
	}
}

func TestBlockTxnRoundTrip(t *testing.T) {
	h := testHash(6)
	in := NewMsgBlockTxn(&h, []*MsgTx{testTx(1), testTx(2)})
	out := roundTrip(t, in).(*MsgBlockTxn)
	if out.BlockHash != h || len(out.Txs) != 2 || out.Txs[1].TxHash() != in.Txs[1].TxHash() {
		t.Errorf("blocktxn round trip mismatch: %+v", out)
	}
}

func TestSendCmpctRoundTrip(t *testing.T) {
	in := NewMsgSendCmpct(true, 2)
	out := roundTrip(t, in).(*MsgSendCmpct)
	if out.Announce != true || out.Version != 2 {
		t.Errorf("sendcmpct round trip mismatch: %+v", out)
	}
}

func TestNetAddressServices(t *testing.T) {
	na := NewNetAddressIPPort(net.IPv4(1, 2, 3, 4), 8333, SFNodeNetwork)
	if !na.HasService(SFNodeNetwork) {
		t.Error("expected SFNodeNetwork")
	}
	na.AddService(SFNodeBloom)
	if !na.HasService(SFNodeBloom) {
		t.Error("AddService failed")
	}
}

func TestNewNetAddressFromTCPAddr(t *testing.T) {
	na := NewNetAddress(&net.TCPAddr{IP: net.IPv4(9, 8, 7, 6), Port: 1234}, SFNodeNetwork)
	if !na.IP.Equal(net.IPv4(9, 8, 7, 6)) || na.Port != 1234 {
		t.Errorf("NewNetAddress = %v:%d", na.IP, na.Port)
	}
}

func TestOutPointString(t *testing.T) {
	h := testHash(1)
	op := NewOutPoint(&h, 3)
	want := h.String() + ":3"
	if op.String() != want {
		t.Errorf("OutPoint.String() = %q, want %q", op.String(), want)
	}
}
