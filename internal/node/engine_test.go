package node

import (
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"banscore/internal/blockchain"
	"banscore/internal/core"
	"banscore/internal/peer"
	"banscore/internal/reputation"
	"banscore/internal/swarm"
	"banscore/internal/wire"
)

// oversizeAddr builds the ADDR flood shape (MaxAddrPerMsg+1 entries, +20).
func oversizeAddr() *wire.MsgAddr {
	m := wire.NewMsgAddr()
	na := wire.NewNetAddressIPPort(net.IPv4(10, 9, 9, 9), 8333, 0)
	for i := 0; i < wire.MaxAddrPerMsg+1; i++ {
		m.AddAddress(na)
	}
	return m
}

// TestEnginePenaltyCarriesWireEvidence holds both misbehavior pumps to the
// evidence chain the Defamation defense rests on: each forensics record
// names the checksum and length of the frame the peer actually sent, and
// the reputation engine is charged exactly each hit's tracker delta. The
// goroutine pump scores inline (Node.misbehave → MisbehavingCtx); the
// event-loop engine stages each hit in a MisbehaviorBatch and scores it at
// the flush (StageMisbehavior → Batch.Add → Flush → scored).
func TestEnginePenaltyCarriesWireEvidence(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) { checkWireEvidence(t, nil) })
	t.Run("batched", func(t *testing.T) {
		checkWireEvidence(t, func(n **Node) peer.Runner {
			eng := swarm.NewEngine(swarm.Config{
				Shards:   1,
				NewBatch: func() swarm.Batcher { return (*n).NewMisbehaviorBatch() },
			})
			t.Cleanup(eng.Stop)
			return eng
		})
	})
}

// checkWireEvidence scores two rules of different weight against one
// inbound peer — an oversize ADDR (+20) and a duplicate VERSION (+1) — and
// checks the ledger and the engine against the frames sent. pump, if not
// nil, builds the node's PeerRunner; *n is the node by the time a
// connection arrives.
func checkWireEvidence(t *testing.T, pump func(n **Node) peer.Runner) {
	var n *Node
	ledger := core.NewLedger(0, 0)
	engine := reputation.New(reputation.Config{})
	env := newEnv(t, func(cfg *Config) {
		cfg.TrackerConfig = core.Config{Mode: core.ModeThresholdInfinity}
		cfg.Forensics = ledger
		cfg.Reputation = engine
		if pump != nil {
			cfg.PeerRunner = pump(&n)
		}
	})
	n = env.node
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)
	peerID := core.PeerIDFromAddr("10.0.0.2:50001")

	hits := []struct {
		msg   wire.Message
		rule  core.RuleID
		frame []byte
	}{
		{msg: oversizeAddr(), rule: core.AddrOversize},
		{msg: clientVersion(2), rule: core.VersionDuplicate},
	}
	for i := range hits {
		buf, err := wire.EncodeMessage(hits[i].msg, wire.ProtocolVersion, wire.SimNet)
		if err != nil {
			t.Fatal(err)
		}
		hits[i].frame = buf.Detach()
		if _, err := conn.Write(hits[i].frame); err != nil {
			t.Fatal(err)
		}
	}

	// The engine decays continuously, so an instant after the hits the
	// score is fractionally under the nominal 20+1.
	waitFor(t, "penalties charged", func() bool { return engine.Score(peerID).Misbehavior > 20.9 })
	if s := engine.Score(peerID); s.Misbehavior > 21 {
		t.Fatalf("engine misbehavior = %v, want the rules' 20+1 less instants of decay", s.Misbehavior)
	}

	// Each record names the offending bytes: the frame's header checksum
	// (big-endian, as framed) and its payload length, alongside command
	// and rule.
	records := ledger.Records(peerID)
	if len(records) != len(hits) {
		t.Fatalf("ledger holds %d records, want %d", len(records), len(hits))
	}
	for i, r := range records {
		h := hits[i]
		if r.Command != h.msg.Command() || r.RuleID != h.rule {
			t.Errorf("record %d names %q/%v, want %s/%v", i, r.Command, r.RuleID, h.msg.Command(), h.rule)
		}
		digest := binary.BigEndian.Uint32(h.frame[20:24])
		if r.PayloadDigest != digest || r.PayloadLen != len(h.frame)-24 {
			t.Errorf("record %d evidence (%#x, %d), want the frame's (%#x, %d)",
				i, r.PayloadDigest, r.PayloadLen, digest, len(h.frame)-24)
		}
	}
}

func TestEngineCreditsUsefulWork(t *testing.T) {
	engine := reputation.New(reputation.Config{})
	env := newEnv(t, func(cfg *Config) {
		cfg.TrackerConfig = core.Config{Mode: core.ModeThresholdInfinity}
		cfg.Reputation = engine
	})
	conn := env.dial(t, "10.0.0.2:50001")
	defer conn.Close()
	handshake(t, conn)
	peerID := core.PeerIDFromAddr("10.0.0.2:50001")

	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	send(t, conn, block)
	waitFor(t, "block credit", func() bool {
		return engine.Score(peerID).Trust == reputation.CreditBlock
	})
	if rep := engine.Score(peerID).Reputation; rep != reputation.CreditBlock {
		t.Fatalf("reputation = %v, want %v from one valid block", rep, float64(reputation.CreditBlock))
	}
}

func TestNetgroupBanDisconnectsAndRefusesPrefix(t *testing.T) {
	// Tight budget so two saturated identities ban the /16: cap 25 with
	// the 20-point ADDR rule. The budget sits just under the nominal
	// 2×25 sum because real-clock decay shaves fractions off the charges
	// between events.
	engine := reputation.New(reputation.Config{
		PeerContributionCap: 25,
		GroupBudget:         49,
	})
	env := newEnv(t, func(cfg *Config) {
		cfg.TrackerConfig = core.Config{Mode: core.ModeThresholdInfinity}
		cfg.Reputation = engine
	})

	// Two Sybil identities from 10.7.0.0/16 saturate their caps.
	for i, from := range []string{"10.7.1.1:49152", "10.7.2.2:49153"} {
		conn := env.dial(t, from)
		handshake(t, conn)
		id := core.PeerIDFromAddr(from)
		send(t, conn, oversizeAddr())
		send(t, conn, oversizeAddr())
		waitFor(t, "cap saturated", func() bool {
			return engine.Score(id).Misbehavior > 39
		})
		if i == 0 {
			conn.Close() // serial churn: charge must outlive the connection
		} else {
			// The second identity's saturating penalty exhausts the budget;
			// the node must tear down the still-connected member.
			waitFor(t, "member disconnected", func() bool {
				_, connected := env.node.Peer(id)
				return !connected
			})
			conn.Close()
		}
	}

	if _, status := engine.GroupPressure("ip4:10.7/16"); status != reputation.GroupBanned {
		t.Fatalf("group status = %v, want banned", status)
	}

	// A FRESH identity from the banned /16 — never seen, not in the ban
	// list — is refused at accept time. This is the Sybil reconnect the
	// per-identifier filter cannot stop.
	fresh := env.dial(t, "10.7.250.250:65535")
	defer fresh.Close()
	fresh.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := fresh.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("fresh swarm identity read = %v, want EOF (refused)", err)
	}
	waitFor(t, "netgroup refusal counted", func() bool {
		return env.node.Stats().NetgroupConnsRefused >= 1
	})

	// An identity from a clean prefix still connects normally.
	clean := env.dial(t, "10.8.0.1:8333")
	defer clean.Close()
	handshake(t, clean)
}

func TestEngineEvictionPrefersDecayedReputation(t *testing.T) {
	engine := reputation.New(reputation.Config{})
	env := newEnv(t, func(cfg *Config) {
		cfg.MaxInbound = 2
		cfg.TrackerConfig = core.Config{Mode: core.ModeThresholdInfinity}
		cfg.EvictLowestReputation = true
		cfg.Reputation = engine
	})

	// Peer A misbehaves → negative engine reputation.
	connA := env.dial(t, "10.0.0.2:50001")
	defer connA.Close()
	handshake(t, connA)
	badID := core.PeerIDFromAddr("10.0.0.2:50001")
	send(t, connA, oversizeAddr())
	waitFor(t, "bad rep", func() bool { return engine.Score(badID).Reputation < 0 })

	// Peer B delivers a block → positive trust.
	connB := env.dial(t, "10.0.0.3:50001")
	defer connB.Close()
	handshake(t, connB)
	goodID := core.PeerIDFromAddr("10.0.0.3:50001")
	block, err := blockchain.GenerateBlock(env.node.Chain(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	send(t, connB, block)
	waitFor(t, "good rep", func() bool { return engine.Score(goodID).Trust > 0 })

	// Newcomer evicts A (engine ranking), never B.
	connC := env.dial(t, "10.0.0.4:50001")
	defer connC.Close()
	handshake(t, connC)
	waitFor(t, "newcomer connected", func() bool {
		_, ok := env.node.Peer(core.PeerIDFromAddr("10.0.0.4:50001"))
		return ok
	})
	if _, stillThere := env.node.Peer(badID); stillThere {
		t.Error("misbehaving peer not evicted under engine ranking")
	}
	if _, ok := env.node.Peer(goodID); !ok {
		t.Error("trusted peer was evicted")
	}

	ranks := env.node.RankPeers()
	for _, r := range ranks {
		if r.Netgroup == "" {
			t.Errorf("rank entry %s missing netgroup", r.ID)
		}
	}
}
