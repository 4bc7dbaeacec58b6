package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"banscore/internal/chainhash"
	"banscore/internal/core"
	"banscore/internal/wire"
)

// stream is a workload's input: a table of distinct frames, encoded once
// from the seed, and the order they are written in. The victim receives
// only these bytes.
type stream struct {
	table [][]byte
	sched []uint32 // table index of each message; nil means table[0], count times
	count int
}

func (s *stream) frame(i int) []byte {
	if s.sched == nil {
		return s.table[0]
	}
	return s.table[s.sched[i]]
}

// wireBytes is the total size of messages [from, to).
func (s *stream) wireBytes(from, to int) int64 {
	if s.sched == nil {
		return int64(to-from) * int64(len(s.table[0]))
	}
	var n int64
	for i := from; i < to; i++ {
		n += int64(len(s.table[s.sched[i]]))
	}
	return n
}

// digest hashes the stream as written, frame by frame.
func (s *stream) digest() [sha256.Size]byte {
	h := sha256.New()
	for i := 0; i < s.count; i++ {
		h.Write(s.frame(i))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// slabFrames is how many small frames one write carries: a slab per write
// keeps the fabric's write path from dominating a small-message flood.
const slabFrames = 64

// directWrite is the frame size from which a frame is written on its own,
// straight from the table, without a copy into the slab buffer.
const directWrite = 32 << 10

// write sends messages [from, to) to w in slabs. buf is the caller's slab
// scratch, returned for reuse.
func (s *stream) write(w io.Writer, from, to int, buf []byte) ([]byte, error) {
	for i := from; i < to; {
		if f := s.frame(i); len(f) >= directWrite {
			if _, err := w.Write(f); err != nil {
				return buf, err
			}
			i++
			continue
		}
		buf = buf[:0]
		for n := 0; n < slabFrames && i < to; n++ {
			f := s.frame(i)
			if len(f) >= directWrite {
				break
			}
			buf = append(buf, f...)
			i++
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// pingStream is n identical PING frames whose nonce comes from the seed.
func pingStream(seed int64, n int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	nonce := rng.Uint64() &^ (uint64(0xffff) << 48) // never a sentinel
	frame, err := encodeFrame(wire.NewMsgPing(nonce))
	if err != nil {
		return nil, err
	}
	return &stream{table: [][]byte{frame}, count: n}, nil
}

// fixedTime stamps every forged message: frame bytes depend on the seed alone.
var fixedTime = time.Unix(1700000000, 0)

// blockPayload is the payload size of a bogus BLOCK frame.
const blockPayload = 1_000_000

// blockStream is n BLOCK frames of seed-derived payload bytes, each framed
// with a wrong header checksum. Four distinct payloads are cycled: the
// victim drops every frame at the checksum, so only the bytes hashed matter.
func blockStream(seed int64, n int) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	const distinct = 4
	s := &stream{count: n, sched: make([]uint32, n)}
	for k := 0; k < distinct; k++ {
		payload := make([]byte, blockPayload)
		rng.Read(payload)
		sum := chainhash.Checksum4(payload)
		sum[0] ^= 0xff
		var frame bytes.Buffer
		frame.Grow(wire.MessageHeaderSize + blockPayload)
		if _, err := wire.WriteRawMessageChecksum(&frame, wire.CmdBlock, payload, wire.SimNet, sum); err != nil {
			return nil, fmt.Errorf("frame bogus block: %w", err)
		}
		s.table = append(s.table, frame.Bytes())
	}
	for i := range s.sched {
		s.sched[i] = uint32(i % distinct)
	}
	return s, nil
}

// sybilInputs are the byte strings every Sybil identity writes — identical
// for all of them, since the victim compares a VERSION nonce only with its
// own — and the seed-derived order the identities act in.
type sybilInputs struct {
	handshake []byte // VERSION + VERACK
	dup       []byte // one duplicate VERSION
	flood     []byte // threshold+1 duplicates, then a sentinel PING
	half      []byte // half the threshold in duplicates, then a sentinel PING: what a churner sends first
	ping      []byte // the sentinel PING
	order     []int  // permutation of identity indices
}

// floodDups is how many duplicate VERSIONs one identity writes: each scores
// 1, so exactly the threshold are consumed; one extra absorbs a frame lost to
// the disconnect racing the last one.
const floodDups = core.DefaultBanThreshold + 1

func newSybilInputs(seed int64, n int) (*sybilInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	version, verack, err := versionFrames(net.IPv4(10, 1, 0, 0), 4001, rng.Uint64())
	if err != nil {
		return nil, err
	}
	ping, err := encodeFrame(wire.NewMsgPing(sentinelTag | 1))
	if err != nil {
		return nil, err
	}
	in := &sybilInputs{
		handshake: append(append([]byte(nil), version...), verack...),
		dup:       version,
		half:      append(bytes.Repeat(version, core.DefaultBanThreshold/2), ping...),
		ping:      ping,
		order:     rng.Perm(n),
	}
	in.flood = append(bytes.Repeat(version, floodDups), ping...)
	return in, nil
}

// digest hashes what the identities write, in the order they act.
func (in *sybilInputs) digest() [sha256.Size]byte {
	h := sha256.New()
	h.Write(in.handshake)
	h.Write(in.flood)
	var idx [8]byte
	for _, i := range in.order {
		binary.LittleEndian.PutUint64(idx[:], uint64(i))
		h.Write(idx[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// swarmIdentity is the i-th identity of sybil_swarm: one per address across
// 10.{1..}.y.z, so the swarm spans many netgroups, on one port.
func swarmIdentity(i int) string {
	return fmt.Sprintf("10.%d.%d.%d:4001", 1+(i>>16), (i>>8)&0xff, i&0xff)
}

// serialIdentity is the i-th identity of serial_sybil_durable: each in a /16
// of its own, so no netgroup budget ever trips.
func serialIdentity(i int) string {
	return fmt.Sprintf("%d.%d.7.7:4001", 20+(i>>8), i&0xff)
}

// The honest mix: traffic.DefaultProfile restricted to the commands the
// generator can forge score-free, renormalised (shares in percent).
var honestMix = []struct {
	cmd   string
	share int
}{
	{wire.CmdTx, 52},
	{wire.CmdInv, 27},
	{wire.CmdGetData, 12},
	{wire.CmdAddr, 3},
	{wire.CmdPing, 3},
	{wire.CmdPong, 3},
}

// honestInputs is the honest_relay stream plus what the checks need to know
// about it.
type honestInputs struct {
	stream  *stream
	preload *stream // the first txs, sent during set-up so that every INV names a known hash
	pool    int     // distinct transactions (40,000 at full scale: under the mempool cap)
	accepts int     // how many of them the victim must have accepted at the end
	txs     []*wire.MsgTx
}

// honestPool is the number of distinct transactions at full scale, under the
// 50,000 mempool cap: a first delivery exercises accept and relay, every
// later one the duplicate path.
const honestPool = 40_000

func newHonestInputs(seed int64, n int) (*honestInputs, error) {
	rng := rand.New(rand.NewSource(seed))

	classes := make([]string, 0, n)
	for _, m := range honestMix {
		for k := n * m.share / 100; k > 0; k-- {
			classes = append(classes, m.cmd)
		}
	}
	for len(classes) < n {
		classes = append(classes, wire.CmdTx)
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	txMsgs := 0
	for _, c := range classes {
		if c == wire.CmdTx {
			txMsgs++
		}
	}

	pool := honestPool
	if pool > txMsgs/4 {
		pool = txMsgs / 4
	}
	if pool < 64 {
		pool = 64
	}
	known := pool / 4
	if known > 1024 {
		known = 1024
	}

	in := &honestInputs{pool: pool}
	s := &stream{count: n, sched: make([]uint32, n)}
	hashes := make([]chainhash.Hash, pool)
	for i := 0; i < pool; i++ {
		var prev chainhash.Hash
		rng.Read(prev[:])
		tx := wire.NewMsgTx(wire.TxVersion)
		tx.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&prev, 0), []byte{0x51}, nil))
		tx.AddTxOut(wire.NewTxOut(1000+rng.Int63n(1_000_000), []byte{0x51}))
		frame, err := encodeFrame(tx)
		if err != nil {
			return nil, err
		}
		hashes[i] = tx.TxHash()
		in.txs = append(in.txs, tx)
		s.table = append(s.table, frame)
	}
	in.preload = &stream{table: s.table[:known], count: known, sched: make([]uint32, known)}
	for i := range in.preload.sched {
		in.preload.sched[i] = uint32(i)
	}

	// Small tables of the other commands; the schedule draws from them.
	add := func(msg wire.Message) (uint32, error) {
		frame, err := encodeFrame(msg)
		if err != nil {
			return 0, err
		}
		s.table = append(s.table, frame)
		return uint32(len(s.table) - 1), nil
	}
	const variants = 1024
	var invs, getdatas, addrs []uint32
	for k := 0; k < variants; k++ {
		inv := wire.NewMsgInv()
		for j := 1 + rng.Intn(3); j > 0; j-- {
			inv.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &hashes[rng.Intn(known)]))
		}
		gd := wire.NewMsgGetData()
		gd.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &hashes[rng.Intn(known)]))
		addr := wire.NewMsgAddr()
		for j := 0; j < 3; j++ {
			ip := net.IPv4(byte(60+rng.Intn(100)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1+rng.Intn(254)))
			na := wire.NewNetAddressIPPort(ip, 8333, wire.SFNodeNetwork)
			na.Timestamp = fixedTime
			addr.AddAddress(na)
		}
		for _, e := range []struct {
			msg wire.Message
			dst *[]uint32
		}{{inv, &invs}, {gd, &getdatas}, {addr, &addrs}} {
			idx, err := add(e.msg)
			if err != nil {
				return nil, err
			}
			*e.dst = append(*e.dst, idx)
		}
	}
	nonce := rng.Uint64() &^ (uint64(0xffff) << 48)
	ping, err := add(wire.NewMsgPing(nonce))
	if err != nil {
		return nil, err
	}
	pong, err := add(wire.NewMsgPong(nonce))
	if err != nil {
		return nil, err
	}

	// First deliveries are spread evenly over the TX slots and every other
	// TX slot repeats a transaction already delivered, so the stream is the
	// same mix of the accept-and-relay path and the duplicate path from its
	// first frame to its last, whatever its length.
	fresh := pool - known
	if fresh > txMsgs {
		fresh = txMsgs
	}
	sent, slot := known, 0
	for i, c := range classes {
		switch c {
		case wire.CmdTx:
			if (slot+1)*fresh/txMsgs > slot*fresh/txMsgs {
				s.sched[i] = uint32(sent)
				sent++
			} else {
				s.sched[i] = uint32(rng.Intn(sent))
			}
			slot++
		case wire.CmdInv:
			s.sched[i] = invs[rng.Intn(variants)]
		case wire.CmdGetData:
			s.sched[i] = getdatas[rng.Intn(variants)]
		case wire.CmdAddr:
			s.sched[i] = addrs[rng.Intn(variants)]
		case wire.CmdPing:
			s.sched[i] = ping
		case wire.CmdPong:
			s.sched[i] = pong
		}
	}
	in.accepts = sent
	in.stream = s
	return in, nil
}
