package experiments

import (
	"fmt"
	"strings"
	"time"

	"banscore/internal/attack"
	"banscore/internal/blockchain"
	"banscore/internal/chainhash"
	"banscore/internal/core"
	"banscore/internal/node"
	"banscore/internal/wire"
)

// Table2Row is one measured message type.
type Table2Row struct {
	Message        string
	AttackerCycles float64
	VictimCycles   float64
	Ratio          float64
}

// Table2Result reproduces Table II: per-query attacker cost, victim impact,
// and the impact-cost ratio for the 18 message types the paper measures.
type Table2Result struct {
	Rows  []Table2Row
	Iters int
}

// table2Spec describes how one message type is measured: craft is the
// attacker's per-query construction (heavyweight payloads are prebuilt and
// reused, exactly like the real flooding attack), pool holds the messages
// the victim processes.
type table2Spec struct {
	name string
	// heavy marks oversize messages whose per-query crafting is itself
	// expensive; they get fewer iterations to bound runtime.
	heavy bool
	craft func() wire.Message
	pool  []wire.Message
}

// Table2 measures every message type against a live victim node.
func Table2(scale Scale) (Table2Result, error) {
	tb, err := scale.testbed(node.Config{TrackerConfig: core.Config{Mode: core.ModeThresholdInfinity}})
	if err != nil {
		return Table2Result{}, err
	}
	defer tb.Close()

	const attacker = "10.0.0.2:50001"
	session, err := tb.NewAttackSession(attacker)
	if err != nil {
		return Table2Result{}, err
	}
	defer session.Close()
	victimPeer, err := tb.VictimPeer(attacker)
	if err != nil {
		return Table2Result{}, err
	}

	// Grow a small chain THROUGH the node's own pipeline so both the
	// chain state and the block store (which answers GETBLOCKTXN) fill.
	var served *wire.MsgBlock
	setupForge := attack.NewForge(tb.Victim.Chain().Params())
	for i := 0; i < 32; i++ {
		txs := make([]*wire.MsgTx, 0, 4)
		for j := 0; j < 4; j++ {
			txs = append(txs, setupForge.ValidTx())
		}
		block, err := blockchain.GenerateBlock(tb.Victim.Chain(), uint64(1000+i), txs)
		if err != nil {
			return Table2Result{}, err
		}
		served = block
		tb.Victim.ProcessMessageDirect(victimPeer, block, block.SerializeSize())
		if tb.Victim.Chain().BestHeight() != int32(i+1) {
			return Table2Result{}, fmt.Errorf("setup block %d not connected", i+1)
		}
	}

	forge := attack.NewForge(tb.Victim.Chain().Params())
	specs, pending, err := buildTable2Specs(forge, tb, served)
	if err != nil {
		return Table2Result{}, err
	}

	// Register the mismatching pending compact block that keeps BLOCKTXN
	// reconstruction repeatable at full cost.
	tb.Victim.ProcessMessageDirect(victimPeer, pending, 0)

	res := Table2Result{Iters: scale.Table2Iters}
	for _, spec := range specs {
		iters := scale.Table2Iters
		if spec.heavy {
			iters = max(scale.Table2Iters/10, 20)
		}

		// Attacker cost: per-query message construction.
		start := clk.Now()
		for i := 0; i < iters; i++ {
			_ = spec.craft()
		}
		attackerPerQuery := clk.Since(start) / time.Duration(iters)

		// Victim impact: application-layer processing per query.
		start = clk.Now()
		for i := 0; i < iters; i++ {
			msg := spec.pool[i%len(spec.pool)]
			tb.Victim.ProcessMessageDirect(victimPeer, msg, 0)
		}
		victimPerQuery := clk.Since(start) / time.Duration(iters)

		row := Table2Row{
			Message:        spec.name,
			AttackerCycles: Cycles(attackerPerQuery),
			VictimCycles:   Cycles(victimPerQuery),
		}
		if row.AttackerCycles > 0 {
			row.Ratio = row.VictimCycles / row.AttackerCycles
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// buildTable2Specs assembles the 18 message types of Table II, returning
// the specs plus the pending compact block that arms BLOCKTXN reconstruction.
func buildTable2Specs(forge *attack.Forge, tb *Testbed, served *wire.MsgBlock) ([]table2Spec, *wire.MsgCmpctBlock, error) {
	// Prebuilt heavyweight payloads (the attacker reuses them per query).
	bogusBlocks := make([]wire.Message, 4)
	for i := range bogusBlocks {
		block := forge.BogusBlock(400)
		if _, err := blockchain.Solve(block, tb.Victim.Chain().Params().PowLimit); err != nil {
			return nil, nil, err
		}
		bogusBlocks[i] = block
	}
	pending := pendingCmpctForBlockTxn(tb)
	pendingHash := pending.Header.BlockHash()
	blockTxn := blockTxnForReconstruction(forge, pendingHash)
	cmpct := prebuiltCmpctBlock(tb)

	// Distinct transactions so the victim validates instead of hitting
	// the duplicate check.
	txPool := make([]wire.Message, 4096)
	for i := range txPool {
		txPool[i] = forge.ValidTx()
	}

	servedHash := served.BlockHash()
	bestHash := tb.Victim.Chain().BestHash()

	version := func() wire.Message {
		// Deterministic fields: the attacker's crafting cost must not
		// be dominated by clock reads.
		return &wire.MsgVersion{
			ProtocolVersion: int32(wire.ProtocolVersion),
			Services:        wire.SFNodeNetwork,
			Timestamp:       time.Unix(1700000000, 0),
			Nonce:           7,
			UserAgent:       wire.DefaultUserAgent,
		}
	}
	getheaders := func() wire.Message {
		// Locator at the tip, as a synced peer would send: the victim
		// answers with an empty HEADERS.
		m := wire.NewMsgGetHeaders()
		_ = m.AddBlockLocatorHash(&bestHash)
		return m
	}
	getblocktxn := func() wire.Message {
		indexes := make([]uint32, len(served.Transactions))
		for i := range indexes {
			indexes[i] = uint32(i)
		}
		return wire.NewMsgGetBlockTxn(&servedHash, indexes)
	}
	notfound := func() wire.Message {
		m := wire.NewMsgNotFound()
		m.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &bestHash))
		return m
	}

	cycle := func(pool []wire.Message) func() wire.Message {
		i := 0
		return func() wire.Message {
			msg := pool[i%len(pool)]
			i++
			return msg
		}
	}

	specs := []table2Spec{
		{name: "VERSION", craft: version, pool: []wire.Message{version()}},
		{name: "VERACK", craft: func() wire.Message { return &wire.MsgVerAck{} }, pool: []wire.Message{&wire.MsgVerAck{}}},
		{name: "ADDR", heavy: true, craft: func() wire.Message { return forge.OversizeAddr() }, pool: []wire.Message{forge.OversizeAddr()}},
		{name: "INV", heavy: true, craft: func() wire.Message { return forge.OversizeInv() }, pool: []wire.Message{forge.OversizeInv()}},
		{name: "GETDATA", heavy: true, craft: func() wire.Message { return forge.OversizeGetData() }, pool: []wire.Message{forge.OversizeGetData()}},
		{name: "GETHEADERS", craft: getheaders, pool: []wire.Message{getheaders()}},
		{name: "TX", craft: func() wire.Message { return forge.ValidTx() }, pool: txPool},
		{name: "HEADERS", heavy: true, craft: func() wire.Message { return forge.OversizeHeaders() }, pool: []wire.Message{forge.OversizeHeaders()}},
		{name: "BLOCK", craft: cycle(bogusBlocks), pool: bogusBlocks},
		{name: "PING", craft: func() wire.Message { return forge.Ping() }, pool: []wire.Message{forge.Ping()}},
		{name: "PONG", craft: func() wire.Message { return wire.NewMsgPong(9) }, pool: []wire.Message{wire.NewMsgPong(9)}},
		{name: "NOTFOUND", craft: notfound, pool: []wire.Message{notfound()}},
		{name: "SENDHEADERS", craft: func() wire.Message { return &wire.MsgSendHeaders{} }, pool: []wire.Message{&wire.MsgSendHeaders{}}},
		{name: "FEEFILTER", craft: func() wire.Message { return wire.NewMsgFeeFilter(1000) }, pool: []wire.Message{wire.NewMsgFeeFilter(1000)}},
		{name: "SENDCMPCT", craft: func() wire.Message { return wire.NewMsgSendCmpct(true, 2) }, pool: []wire.Message{wire.NewMsgSendCmpct(true, 2)}},
		{name: "CMPCTBLOCK", craft: cycle([]wire.Message{cmpct}), pool: []wire.Message{cmpct}},
		{name: "GETBLOCKTXN", craft: getblocktxn, pool: []wire.Message{getblocktxn()}},
		{name: "BLOCKTXN", craft: cycle([]wire.Message{blockTxn}), pool: []wire.Message{blockTxn}},
	}
	return specs, pending, nil
}

// prebuiltCmpctBlock builds a valid-PoW compact block with a large short-id
// list (the shape that maximizes victim-side work).
func prebuiltCmpctBlock(tb *Testbed) *wire.MsgCmpctBlock {
	params := tb.Victim.Chain().Params()
	block := blockchain.BuildBlock(params, chainhash.DoubleHashH([]byte("cmpct prev")), 1, 42,
		time.Unix(1700000000, 0), nil)
	_, _ = blockchain.Solve(block, params.PowLimit)
	cb := wire.NewMsgCmpctBlock(&block.Header)
	cb.ShortIDs = make([]uint64, 2000)
	for i := range cb.ShortIDs {
		cb.ShortIDs[i] = uint64(i)
	}
	return cb
}

// pendingCmpctForBlockTxn registers a pending compact block whose merkle
// root never matches, so every BLOCKTXN triggers a full (failing)
// reconstruction: hash all transactions + rebuild the merkle tree.
func pendingCmpctForBlockTxn(tb *Testbed) *wire.MsgCmpctBlock {
	params := tb.Victim.Chain().Params()
	header := wire.BlockHeader{
		Version:    1,
		PrevBlock:  chainhash.DoubleHashH([]byte("blocktxn prev")),
		MerkleRoot: chainhash.DoubleHashH([]byte("never matches")),
		Timestamp:  time.Unix(1700000000, 0),
		Bits:       params.PowBits,
	}
	block := wire.NewMsgBlock(&header)
	_, _ = blockchain.Solve(block, params.PowLimit)
	cb := wire.NewMsgCmpctBlock(&block.Header)
	cb.ShortIDs = []uint64{1}
	return cb
}

// blockTxnForReconstruction builds the 100-transaction BLOCKTXN aimed at
// the mismatching pending header.
func blockTxnForReconstruction(forge *attack.Forge, pendingHash chainhash.Hash) *wire.MsgBlockTxn {
	txs := make([]*wire.MsgTx, 100)
	for i := range txs {
		txs[i] = forge.ValidTx()
	}
	return wire.NewMsgBlockTxn(&pendingHash, txs)
}

// Row returns the row for the named message.
func (r Table2Result) Row(name string) (Table2Row, bool) {
	for _, row := range r.Rows {
		if row.Message == name {
			return row, true
		}
	}
	return Table2Row{}, false
}

// TopByRatio returns the message names sorted by descending ratio.
func (r Table2Result) TopByRatio() []string {
	rows := append([]Table2Row(nil), r.Rows...)
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].Ratio > rows[i].Ratio {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	names := make([]string, len(rows))
	for i, row := range rows {
		names[i] = row.Message
	}
	return names
}

// Render prints the table in the paper's column layout.
func (r Table2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("TABLE II — MEASUREMENT OF BITCOIN MESSAGE TYPES PER QUERY\n")
	fmt.Fprintf(&sb, "(reference clock %.0f GHz, %d iterations per type)\n", ReferenceClockHz/1e9, r.Iters)
	fmt.Fprintf(&sb, "%-12s | %18s | %18s | %s\n",
		"Message", "Attacker (clocks)", "Victim (clocks)", "Impact-Cost ratio")
	sb.WriteString(strings.Repeat("-", 72) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-12s | %18.2f | %18.2f | %.4f\n",
			row.Message, row.AttackerCycles, row.VictimCycles, row.Ratio)
	}
	top := r.TopByRatio()
	if len(top) >= 2 {
		fmt.Fprintf(&sb, "\nHighest impact-cost ratio: %s; runner-up: %s (paper: BLOCK then BLOCKTXN)\n", top[0], top[1])
	}
	return sb.String()
}
