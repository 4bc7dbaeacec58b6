package node

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"banscore/internal/blockchain"
	"banscore/internal/bloom"
	"banscore/internal/chainhash"
	"banscore/internal/core"
	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// testEnv is a target node listening on a simnet fabric.
type testEnv struct {
	fabric *simnet.Network
	node   *Node
	addr   string
	ports  atomic.Uint32
}

// recordingTap counts monitor events.
type recordingTap struct {
	mu         sync.Mutex
	messages   map[string]int
	reconnects int
}

func newRecordingTap() *recordingTap {
	return &recordingTap{messages: make(map[string]int)}
}

func (r *recordingTap) OnMessage(cmd string, _ time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.messages[cmd]++
}

func (r *recordingTap) OnOutboundReconnect(_ time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reconnects++
}

func (r *recordingTap) Reconnects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reconnects
}

func newEnv(t *testing.T, mutate func(*Config)) *testEnv {
	t.Helper()
	fabric := simnet.NewNetwork()
	env := &testEnv{fabric: fabric, addr: "10.0.0.1:8333"}
	cfg := Config{
		Dialer: func(remote string) (net.Conn, error) {
			port := 40000 + env.ports.Add(1)
			return fabric.Dial(fmt.Sprintf("10.0.0.1:%d", port), remote)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	env.node = New(cfg)
	l, err := fabric.Listen(env.addr)
	if err != nil {
		t.Fatal(err)
	}
	env.node.Serve(l)
	t.Cleanup(func() {
		env.node.Stop()
		fabric.Close()
	})
	return env
}

// dial opens a raw client connection from the given source identifier.
func (e *testEnv) dial(t *testing.T, from string) net.Conn {
	t.Helper()
	conn, err := e.fabric.Dial(from, e.addr)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// send writes a message with correct framing.
func send(t *testing.T, conn net.Conn, msg wire.Message) {
	t.Helper()
	if _, err := wire.WriteMessage(conn, msg, wire.ProtocolVersion, wire.SimNet); err != nil {
		t.Fatalf("send %s: %v", msg.Command(), err)
	}
}

// recv reads the next message with a deadline.
func recv(t *testing.T, conn net.Conn) wire.Message {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	msg, _, err := wire.ReadMessage(conn, wire.ProtocolVersion, wire.SimNet)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	return msg
}

// clientVersion builds a VERSION message for a raw test client.
func clientVersion(nonce uint64) *wire.MsgVersion {
	me := wire.NewNetAddressIPPort(net.IPv4(10, 0, 0, 2), 50001, wire.SFNodeNetwork)
	you := wire.NewNetAddressIPPort(net.IPv4(10, 0, 0, 1), 8333, wire.SFNodeNetwork)
	return wire.NewMsgVersion(me, you, nonce, 0)
}

// handshake performs the client half of the version handshake.
func handshake(t *testing.T, conn net.Conn) {
	t.Helper()
	send(t, conn, clientVersion(uint64(time.Now().UnixNano())))
	sawVersion, sawVerack := false, false
	for !sawVersion || !sawVerack {
		switch recv(t, conn).(type) {
		case *wire.MsgVersion:
			sawVersion = true
		case *wire.MsgVerAck:
			sawVerack = true
		}
	}
	send(t, conn, &wire.MsgVerAck{})
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestHandshakeAndPing(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	send(t, conn, wire.NewMsgPing(777))
	msg := recv(t, conn)
	pong, ok := msg.(*wire.MsgPong)
	if !ok || pong.Nonce != 777 {
		t.Fatalf("reply = %#v, want pong 777", msg)
	}
	if in, _ := env.node.PeerCount(); in != 1 {
		t.Errorf("inbound count = %d", in)
	}
}

func TestMessageBeforeVersionScoresOne(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()

	send(t, conn, wire.NewMsgPing(1))
	waitFor(t, "ban score", func() bool {
		return env.node.Tracker().Score(core.PeerIDFromAddr("10.0.0.2:50001")) == 1
	})
}

func TestDuplicateVersionScores(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	peerID := core.PeerIDFromAddr("10.0.0.2:50001")
	// Each duplicate VERSION adds 1 (Fig. 8's attack primitive).
	for i := 0; i < 5; i++ {
		send(t, conn, clientVersion(uint64(i)))
	}
	waitFor(t, "score 5", func() bool { return env.node.Tracker().Score(peerID) == 5 })
}

func TestDefamationVersionFloodBansAt100(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	peerID := core.PeerIDFromAddr("10.0.0.2:50001")
	for i := 0; i < 100; i++ {
		send(t, conn, clientVersion(uint64(i)))
	}
	waitFor(t, "ban", func() bool { return env.node.Tracker().IsBanned(peerID) })

	// The banned identifier is disconnected...
	waitFor(t, "disconnect", func() bool {
		in, _ := env.node.PeerCount()
		return in == 0
	})
	// ...and cannot reconnect: the connection is dropped at accept.
	re := env.dial(t, "10.0.0.2:50001")
	defer re.Close()
	re.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := re.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("banned reconnect read = %v, want EOF (refused)", err)
	}
	if env.node.Stats().BannedConnsRefused == 0 {
		t.Error("refused-connection counter not incremented")
	}

	// A different port of the same IP is a fresh identifier — the Sybil
	// loophole the paper exploits.
	sybil := env.dial(t, "10.0.0.2:50002")
	defer sybil.Close()
	handshake(t, sybil)
}

func TestOversizeRulesScore20(t *testing.T) {
	tests := []struct {
		name  string
		build func() wire.Message
	}{
		{"addr", func() wire.Message {
			m := wire.NewMsgAddr()
			na := wire.NewNetAddressIPPort(net.IPv4(10, 9, 9, 9), 8333, 0)
			for i := 0; i < wire.MaxAddrPerMsg+1; i++ {
				m.AddAddress(na)
			}
			return m
		}},
		{"inv", func() wire.Message {
			m := wire.NewMsgInv()
			h := chainhash.DoubleHashH([]byte("x"))
			iv := wire.NewInvVect(wire.InvTypeTx, &h)
			for i := 0; i < wire.MaxInvPerMsg+1; i++ {
				m.AddInvVect(iv)
			}
			return m
		}},
		{"getdata", func() wire.Message {
			m := wire.NewMsgGetData()
			h := chainhash.DoubleHashH([]byte("x"))
			iv := wire.NewInvVect(wire.InvTypeTx, &h)
			for i := 0; i < wire.MaxInvPerMsg+1; i++ {
				m.AddInvVect(iv)
			}
			return m
		}},
		{"headers", func() wire.Message {
			m := wire.NewMsgHeaders()
			hdr := &wire.BlockHeader{}
			for i := 0; i < wire.MaxBlockHeadersPerMsg+1; i++ {
				m.AddBlockHeader(hdr)
			}
			return m
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			env := newEnv(t, nil)
			conn := env.dial(t, "10.0.0.2:50001")
			defer conn.Close()
			handshake(t, conn)
			send(t, conn, tt.build())
			waitFor(t, "score 20", func() bool {
				return env.node.Tracker().Score(core.PeerIDFromAddr("10.0.0.2:50001")) == 20
			})
		})
	}
}

// The counterpart of the oversize rules: a list whose count fits the decode
// cap but whose payload ends right after it. The checksum is correct, so the
// frame reaches the decoder — which must find it short from the count alone
// (internal/wire pins that it allocates nothing for the claim) — and the node
// drops the connection without scoring it.
func TestLyingCountDisconnectsUnscored(t *testing.T) {
	// claim is prefix zero bytes followed by the CompactSize of count.
	claim := func(prefix int, count uint32) []byte {
		p := make([]byte, prefix)
		if count <= 0xffff {
			return binary.LittleEndian.AppendUint16(append(p, 0xfd), uint16(count))
		}
		return binary.LittleEndian.AppendUint32(append(p, 0xfe), count)
	}
	for _, tc := range []struct {
		command string
		payload []byte
	}{
		{wire.CmdAddr, claim(0, 50*wire.MaxAddrPerMsg)},
		{wire.CmdInv, claim(0, 4*wire.MaxInvPerMsg)},
		{wire.CmdGetData, claim(0, 4*wire.MaxInvPerMsg)},
		{wire.CmdHeaders, claim(0, 5*wire.MaxBlockHeadersPerMsg)},
		{wire.CmdGetHeaders, claim(4, wire.MaxBlockLocatorsPerMsg)},
		{wire.CmdTx, claim(4, 100000)},
		{wire.CmdBlock, claim(wire.BlockHeaderLen, 100000)},
		{wire.CmdMerkleBlock, claim(wire.BlockHeaderLen+4, 100000)},
		{wire.CmdCmpctBlock, claim(wire.BlockHeaderLen+8, 100000)},
		{wire.CmdGetBlockTxn, claim(chainhash.HashSize, 100000)},
		{wire.CmdBlockTxn, claim(chainhash.HashSize, 100000)},
		{wire.CmdFilterLoad, claim(0, 4*wire.MaxFilterLoadFilterSize)},
	} {
		t.Run(tc.command, func(t *testing.T) {
			// A disconnect forgets the live score, so count rule hits.
			var hits atomic.Int32
			env := newEnv(t, func(cfg *Config) {
				cfg.TrackerConfig.OnApplied = func(core.PeerID, core.RuleID, int, int) { hits.Add(1) }
			})
			conn := env.dial(t, "10.0.0.2:50001")
			defer conn.Close()
			handshake(t, conn)
			if _, err := wire.WriteRawMessage(conn, tc.command, tc.payload, wire.SimNet); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "disconnect", func() bool {
				in, _ := env.node.PeerCount()
				return in == 0
			})
			if n := hits.Load(); n != 0 || env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001")) {
				t.Errorf("%d rule hits, want an unscored, unbanned disconnect", n)
			}
		})
	}
}

func TestMutatedBlockBansInstantly(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	params := env.node.Chain().Params()
	block := blockchain.BuildBlock(params, env.node.Chain().BestHash(), 1, 1, time.Now(), nil)
	if _, err := blockchain.Solve(block, params.PowLimit); err != nil {
		t.Fatal(err)
	}
	// Mutate the merkle root after solving... that would invalidate PoW
	// too; instead corrupt the transaction list so the root mismatches.
	block.AddTransaction(blockchain.NewCoinbaseTx(9, 9)) // breaks merkle AND multiple-coinbase; merkle checked after coinbase? Multiple coinbase fires first — still a 100-point invalid class.
	send(t, conn, block)
	waitFor(t, "instant ban", func() bool {
		return env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001"))
	})
}

func TestPrevBlockMissingScores10(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	params := env.node.Chain().Params()
	orphanPrev := chainhash.DoubleHashH([]byte("unknown"))
	block := blockchain.BuildBlock(params, orphanPrev, 1, 1, time.Now(), nil)
	if _, err := blockchain.Solve(block, params.PowLimit); err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "score 10", func() bool {
		return env.node.Tracker().Score(core.PeerIDFromAddr("10.0.0.2:50001")) == 10
	})
}

func TestValidBlockAcceptedAndCreditsGoodScore(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "block accepted", func() bool { return env.node.Chain().BestHeight() == 1 })
	peerID := core.PeerIDFromAddr("10.0.0.2:50001")
	if env.node.Tracker().GoodScore(peerID) != 1 {
		t.Errorf("good score = %d, want 1", env.node.Tracker().GoodScore(peerID))
	}
	if env.node.Stats().BlocksAccepted != 1 {
		t.Error("BlocksAccepted counter")
	}
	hash := block.BlockHash()
	if _, ok := env.node.StoredBlock(&hash); !ok {
		t.Error("accepted block not stored")
	}
}

func TestInvalidSegWitTxBans(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	tx := wire.NewMsgTx(wire.TxVersion)
	prev := chainhash.DoubleHashH([]byte("in"))
	tx.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&prev, 0), []byte{0x51}, wire.TxWitness{[]byte{1}}))
	tx.AddTxOut(wire.NewTxOut(1000, []byte{0x51}))
	send(t, conn, tx)
	waitFor(t, "segwit ban", func() bool {
		return env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001"))
	})
}

func TestValidTxAcceptedAndServed(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	tx := wire.NewMsgTx(wire.TxVersion)
	prev := chainhash.DoubleHashH([]byte("in"))
	tx.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&prev, 0), []byte{0x51}, nil))
	tx.AddTxOut(wire.NewTxOut(1000, []byte{0x51}))
	send(t, conn, tx)
	hash := tx.TxHash()
	waitFor(t, "tx accepted", func() bool { return env.node.Mempool().Have(&hash) })

	// GETDATA serves it back.
	req := wire.NewMsgGetData()
	req.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &hash))
	send(t, conn, req)
	msg := recv(t, conn)
	got, ok := msg.(*wire.MsgTx)
	if !ok || got.TxHash() != hash {
		t.Fatalf("served %#v", msg)
	}
}

func TestGetDataUnknownRepliesNotFound(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	h := chainhash.DoubleHashH([]byte("missing"))
	req := wire.NewMsgGetData()
	req.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &h))
	send(t, conn, req)
	msg := recv(t, conn)
	nf, ok := msg.(*wire.MsgNotFound)
	if !ok || len(nf.InvList) != 1 || nf.InvList[0].Hash != h {
		t.Fatalf("reply = %#v, want notfound", msg)
	}
}

func TestGetBlockTxnOutOfBoundsBans(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	// Give the node a block first.
	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "block", func() bool { return env.node.Chain().BestHeight() == 1 })

	hash := block.BlockHash()
	send(t, conn, wire.NewMsgGetBlockTxn(&hash, []uint32{99}))
	waitFor(t, "oob ban", func() bool {
		return env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001"))
	})
}

func TestGetBlockTxnInBoundsServed(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "block", func() bool { return env.node.Chain().BestHeight() == 1 })

	hash := block.BlockHash()
	send(t, conn, wire.NewMsgGetBlockTxn(&hash, []uint32{0}))
	msg := recv(t, conn)
	btx, ok := msg.(*wire.MsgBlockTxn)
	if !ok || len(btx.Txs) != 1 {
		t.Fatalf("reply = %#v", msg)
	}
}

func TestFilterRules(t *testing.T) {
	t.Run("filterload oversize bans", func(t *testing.T) {
		env := newEnv(t, nil)
		conn := env.dial(t, "10.0.0.2:50001")
		defer conn.Close()
		handshake(t, conn)
		send(t, conn, wire.NewMsgFilterLoad(make([]byte, wire.MaxFilterLoadFilterSize+1), 1, 0, 0))
		waitFor(t, "ban", func() bool {
			return env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001"))
		})
	})
	t.Run("filteradd oversize bans", func(t *testing.T) {
		env := newEnv(t, nil)
		conn := env.dial(t, "10.0.0.2:50001")
		defer conn.Close()
		handshake(t, conn)
		send(t, conn, wire.NewMsgFilterAdd(make([]byte, wire.MaxFilterAddDataSize+1)))
		waitFor(t, "ban", func() bool {
			return env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001"))
		})
	})
	t.Run("filteradd modern version without bloom service bans", func(t *testing.T) {
		env := newEnv(t, nil)
		conn := env.dial(t, "10.0.0.2:50001")
		defer conn.Close()
		handshake(t, conn) // negotiates protocol 70015 >= 70011
		send(t, conn, wire.NewMsgFilterAdd([]byte{1, 2, 3}))
		waitFor(t, "ban", func() bool {
			return env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001"))
		})
	})
	t.Run("filteradd allowed when bloom service offered", func(t *testing.T) {
		env := newEnv(t, func(cfg *Config) { cfg.Services = wire.SFNodeBloom })
		conn := env.dial(t, "10.0.0.2:50001")
		defer conn.Close()
		handshake(t, conn)
		send(t, conn, wire.NewMsgFilterLoad([]byte{0xff}, 1, 0, 0))
		send(t, conn, wire.NewMsgFilterAdd([]byte{1, 2, 3}))
		send(t, conn, wire.NewMsgPing(5)) // flush marker
		msg := recv(t, conn)
		if _, ok := msg.(*wire.MsgPong); !ok {
			t.Fatalf("got %#v, want pong (no ban)", msg)
		}
		if env.node.Tracker().Score(core.PeerIDFromAddr("10.0.0.2:50001")) != 0 {
			t.Error("legit filteradd scored")
		}
	})
}

func TestCmpctBlockInvalidBans(t *testing.T) {
	env := newEnv(t, func(cfg *Config) { cfg.ChainParams = blockchain.HardNetParams() })
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	// Unsolved header at hardnet difficulty: invalid compact block.
	params := env.node.Chain().Params()
	block := blockchain.BuildBlock(params, env.node.Chain().BestHash(), 1, 1, time.Now(), nil)
	cb := wire.NewMsgCmpctBlock(&block.Header)
	cb.ShortIDs = []uint64{1, 2, 3}
	send(t, conn, cb)
	waitFor(t, "cmpct ban", func() bool {
		return env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001"))
	})
}

func TestHeadersNonConnectingNeeds10(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	peerID := core.PeerIDFromAddr("10.0.0.2:50001")
	orphan := &wire.BlockHeader{PrevBlock: chainhash.DoubleHashH([]byte("nowhere"))}
	for i := 0; i < 9; i++ {
		m := wire.NewMsgHeaders()
		m.AddBlockHeader(orphan)
		send(t, conn, m)
	}
	send(t, conn, wire.NewMsgPing(1))
	recv(t, conn) // pong: all headers processed
	if got := env.node.Tracker().Score(peerID); got != 0 {
		t.Fatalf("score after 9 non-connecting deliveries = %d, want 0", got)
	}
	m := wire.NewMsgHeaders()
	m.AddBlockHeader(orphan)
	send(t, conn, m)
	waitFor(t, "score 20", func() bool { return env.node.Tracker().Score(peerID) == 20 })
}

func TestHeadersNonContinuousScores(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	// Two unrelated headers: discontinuous sequence.
	h1 := &wire.BlockHeader{Nonce: 1}
	h2 := &wire.BlockHeader{Nonce: 2, PrevBlock: chainhash.DoubleHashH([]byte("not h1"))}
	m := wire.NewMsgHeaders()
	m.AddBlockHeader(h1)
	m.AddBlockHeader(h2)
	send(t, conn, m)
	waitFor(t, "score 20", func() bool {
		return env.node.Tracker().Score(core.PeerIDFromAddr("10.0.0.2:50001")) == 20
	})
}

func TestGetHeadersServesChain(t *testing.T) {
	env := newEnv(t, nil)
	// Grow the chain.
	for i := 0; i < 5; i++ {
		block, err := blockchain.GenerateBlock(env.node.Chain(), uint64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.node.Chain().ProcessBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	req := wire.NewMsgGetHeaders()
	genesis := env.node.Chain().Params().GenesisHash
	if err := req.AddBlockLocatorHash(&genesis); err != nil {
		t.Fatal(err)
	}
	send(t, conn, req)
	msg := recv(t, conn)
	headers, ok := msg.(*wire.MsgHeaders)
	if !ok || len(headers.Headers) != 5 {
		t.Fatalf("reply = %#v, want 5 headers", msg)
	}
}

func TestChecksumBypassNoScore(t *testing.T) {
	// BM-DoS vector 2: a BLOCK with a corrupt checksum is dropped before
	// the application layer. No score, no disconnect.
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	params := env.node.Chain().Params()
	bogus := blockchain.BuildBlock(params, chainhash.DoubleHashH([]byte("junk")), 1, 1, time.Now(), nil)
	buf := wire.GetBuf(0)
	defer buf.Release()
	if err := bogus.BtcEncode(buf, wire.ProtocolVersion); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()
	for i := 0; i < 10; i++ {
		if _, err := wire.WriteRawMessageChecksum(conn, wire.CmdBlock, payload, wire.SimNet, [4]byte{0xde, 0xad, 0xbe, 0xef}); err != nil {
			t.Fatal(err)
		}
	}
	send(t, conn, wire.NewMsgPing(3))
	msg := recv(t, conn)
	if _, ok := msg.(*wire.MsgPong); !ok {
		t.Fatalf("reply = %#v, want pong (connection alive)", msg)
	}
	if got := env.node.Tracker().Score(core.PeerIDFromAddr("10.0.0.2:50001")); got != 0 {
		t.Errorf("score after checksum-bogus blocks = %d, want 0", got)
	}
}

func TestInboundSlotLimit(t *testing.T) {
	env := newEnv(t, func(cfg *Config) { cfg.MaxInbound = 2 })
	c1 := env.dial(t, "10.0.0.2:50001")
	defer c1.Close()
	handshake(t, c1)
	c2 := env.dial(t, "10.0.0.3:50001")
	defer c2.Close()
	handshake(t, c2)

	c3 := env.dial(t, "10.0.0.4:50001")
	defer c3.Close()
	c3.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c3.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("over-slot connection read = %v, want EOF", err)
	}
	if env.node.Stats().SlotConnsRefused != 1 {
		t.Error("slot-refused counter")
	}
}

func TestOutboundConnectAndHandshake(t *testing.T) {
	env := newEnv(t, nil)
	// A second node acts as the remote peer.
	remote := New(Config{})
	l, err := env.fabric.Listen("10.0.0.9:8333")
	if err != nil {
		t.Fatal(err)
	}
	remote.Serve(l)
	defer remote.Stop()

	if err := env.node.Connect("10.0.0.9:8333"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "outbound handshake", func() bool {
		_, out := env.node.PeerCount()
		if out != 1 {
			return false
		}
		for _, id := range []core.PeerID{core.PeerIDFromAddr("10.0.0.9:8333")} {
			p, ok := env.node.Peer(id)
			if !ok || !p.HandshakeComplete() {
				return false
			}
		}
		return true
	})
}

func TestOutboundReconnectAfterBan(t *testing.T) {
	tap := newRecordingTap()
	env := newEnv(t, func(cfg *Config) { cfg.Tap = tap })

	// Two candidate remotes.
	for _, addr := range []string{"10.0.0.9:8333", "10.0.0.10:8333"} {
		remote := New(Config{})
		l, err := env.fabric.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		remote.Serve(l)
		defer remote.Stop()
		env.node.AddrManager().Add(addr)
	}

	if err := env.node.Connect("10.0.0.9:8333"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "outbound up", func() bool {
		_, out := env.node.PeerCount()
		return out == 1
	})

	// Defamation succeeded: the innocent outbound peer is banned.
	innocent := core.PeerIDFromAddr("10.0.0.9:8333")
	env.node.Tracker().BanList().Ban(innocent, time.Hour)
	env.node.DisconnectPeer(innocent)

	// The node rebuilds an outbound connection to the other candidate —
	// the reconnection the detection feature c observes.
	waitFor(t, "reconnect", func() bool { return tap.Reconnects() == 1 })
	waitFor(t, "new outbound", func() bool {
		p, ok := env.node.Peer(core.PeerIDFromAddr("10.0.0.10:8333"))
		return ok && !p.Inbound()
	})
}

func TestTapCountsMessages(t *testing.T) {
	tap := newRecordingTap()
	env := newEnv(t, func(cfg *Config) { cfg.Tap = tap })
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)
	send(t, conn, wire.NewMsgPing(1))
	recv(t, conn)

	tap.mu.Lock()
	defer tap.mu.Unlock()
	if tap.messages[wire.CmdVersion] != 1 || tap.messages[wire.CmdVerAck] != 1 || tap.messages[wire.CmdPing] != 1 {
		t.Errorf("tap counts = %v", tap.messages)
	}
}

func TestAddrGossipPopulatesPeerTable(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	m := wire.NewMsgAddr()
	for i := 0; i < 5; i++ {
		m.AddAddress(wire.NewNetAddressIPPort(net.IPv4(10, 1, 0, byte(i+1)), 8333, 0))
	}
	send(t, conn, m)
	waitFor(t, "addrs learned", func() bool { return env.node.AddrManager().Count() >= 5 })

	send(t, conn, &wire.MsgGetAddr{})
	msg := recv(t, conn)
	reply, ok := msg.(*wire.MsgAddr)
	if !ok || len(reply.AddrList) < 5 {
		t.Fatalf("getaddr reply = %#v", msg)
	}
}

func TestCountermeasureDisabledModeNeverBansUnderDefamation(t *testing.T) {
	env := newEnv(t, func(cfg *Config) {
		cfg.TrackerConfig = core.Config{Mode: core.ModeDisabled}
	})
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	for i := 0; i < 300; i++ {
		send(t, conn, clientVersion(uint64(i)))
	}
	send(t, conn, wire.NewMsgPing(4))
	msg := recv(t, conn)
	if _, ok := msg.(*wire.MsgPong); !ok {
		t.Fatalf("reply = %#v, want pong (still connected)", msg)
	}
	if env.node.Tracker().IsBanned(core.PeerIDFromAddr("10.0.0.2:50001")) {
		t.Error("disabled mode banned a peer")
	}
}

func TestStatsSnapshot(t *testing.T) {
	env := newEnv(t, nil)
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)
	send(t, conn, wire.NewMsgPing(1))
	recv(t, conn)
	s := env.node.Stats()
	if s.InboundPeers != 1 || s.MessagesProcessed < 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBIP37FilteredBlockServing(t *testing.T) {
	env := newEnv(t, func(cfg *Config) { cfg.Services = wire.SFNodeBloom })
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	// Deliver a block with known transactions.
	txs := []*wire.MsgTx{}
	for i := byte(1); i <= 3; i++ {
		tx := wire.NewMsgTx(wire.TxVersion)
		prev := chainhash.DoubleHashH([]byte{i})
		tx.AddTxIn(wire.NewTxIn(wire.NewOutPoint(&prev, 0), []byte{0x51}, nil))
		tx.AddTxOut(wire.NewTxOut(1000, []byte{0xa0 + i}))
		txs = append(txs, tx)
	}
	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, txs)
	if err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "block accepted", func() bool { return env.node.Chain().BestHeight() == 1 })

	// Install a filter matching exactly the second transaction.
	want := txs[1].TxHash()
	filter := bloom.NewFilter(10, 0.0001, 0, wire.BloomUpdateNone)
	filter.Add(want[:])
	send(t, conn, filter.MsgFilterLoad())

	// Request the filtered block.
	hash := block.BlockHash()
	req := wire.NewMsgGetData()
	req.AddInvVect(wire.NewInvVect(wire.InvTypeFilteredBlock, &hash))
	send(t, conn, req)

	// Expect a MERKLEBLOCK whose proof verifies and recovers the txid,
	// followed by the matched transaction itself.
	proof, ok := recv(t, conn).(*wire.MsgMerkleBlock)
	if !ok {
		t.Fatal("first reply is not a merkleblock")
	}
	matches, err := bloom.ExtractMatches(proof)
	if err != nil {
		t.Fatalf("proof does not verify: %v", err)
	}
	if len(matches) != 1 || matches[0] != want {
		t.Fatalf("proof matches %v, want [%s]", matches, want)
	}
	tx, ok := recv(t, conn).(*wire.MsgTx)
	if !ok || tx.TxHash() != want {
		t.Fatalf("follow-up = %#v, want the matched tx", tx)
	}
}

func TestFilterAddExtendsInstalledFilter(t *testing.T) {
	env := newEnv(t, func(cfg *Config) { cfg.Services = wire.SFNodeBloom })
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "block accepted", func() bool { return env.node.Chain().BestHeight() == 1 })

	// Empty filter, then FILTERADD the coinbase txid.
	send(t, conn, wire.NewMsgFilterLoad(make([]byte, 64), 5, 0, wire.BloomUpdateNone))
	coinbase := block.Transactions[0].TxHash()
	send(t, conn, wire.NewMsgFilterAdd(coinbase.CloneBytes()))

	hash := block.BlockHash()
	req := wire.NewMsgGetData()
	req.AddInvVect(wire.NewInvVect(wire.InvTypeFilteredBlock, &hash))
	send(t, conn, req)

	proof, ok := recv(t, conn).(*wire.MsgMerkleBlock)
	if !ok {
		t.Fatal("no merkleblock")
	}
	matches, err := bloom.ExtractMatches(proof)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 1 || matches[0] != coinbase {
		t.Fatalf("matches = %v, want the FILTERADDed coinbase", matches)
	}
}

func TestFilterClearRemovesFilter(t *testing.T) {
	env := newEnv(t, func(cfg *Config) { cfg.Services = wire.SFNodeBloom })
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)

	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "block accepted", func() bool { return env.node.Chain().BestHeight() == 1 })

	send(t, conn, wire.NewMsgFilterLoad(make([]byte, 64), 5, 0, wire.BloomUpdateNone))
	send(t, conn, &wire.MsgFilterClear{})

	// Without a filter, a filtered-block request serves the full block.
	hash := block.BlockHash()
	req := wire.NewMsgGetData()
	req.AddInvVect(wire.NewInvVect(wire.InvTypeFilteredBlock, &hash))
	send(t, conn, req)
	if _, ok := recv(t, conn).(*wire.MsgBlock); !ok {
		t.Fatal("expected the full block after filterclear")
	}
}
