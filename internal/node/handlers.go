package node

import (
	"net"
	"strconv"
	"time"

	"banscore/internal/blockchain"
	"banscore/internal/bloom"
	"banscore/internal/chainhash"
	"banscore/internal/core"
	"banscore/internal/mempool"
	"banscore/internal/peer"
	"banscore/internal/reputation"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// handleSampleMask thins the dispatch-latency histogram to one timed
// message in 64. Two clock reads per message would cost several times the
// rest of the instrumentation combined, and latency is a distribution, not
// a total, so a fixed sample keeps the histogram honest at ~2 ns amortized.
const handleSampleMask = 63

// handleMessage is the node's message entry point. With telemetry enabled
// the per-command counter doubles as the message count — Stats sums the
// family — so the instrumented path pays the same single atomic increment
// as the bare one, plus a cached-pointer load and a string compare.
func (n *Node) handleMessage(p *peer.Peer, msg wire.Message, rawLen int) {
	// Lifecycle tracing costs one nil check when unconfigured and at most
	// two atomic loads per message when configured but cold.
	if tr := n.cfg.Tracer; tr != nil && tr.Armed() && n.handleTraced(tr, p, msg, rawLen) {
		return
	}
	m := n.metrics
	if m == nil {
		n.messagesProcessed.Add(1)
		n.dispatch(p, msg, rawLen)
		return
	}
	// Fast path of nodeMetrics.countRxMiss, by hand: the compiler won't
	// inline the miss path, and a call frame here costs a measurable slice
	// of the per-message budget.
	var count uint64
	cmd := msg.Command()
	if f := m.rxFast.Load(); f != nil && f.cmd == cmd {
		count = f.c.Inc()
	} else {
		count = m.countRxMiss(cmd)
	}
	if count&handleSampleMask != 0 {
		n.dispatch(p, msg, rawLen)
		return
	}
	start := time.Now()
	n.dispatch(p, msg, rawLen)
	m.handle.Observe(time.Since(start).Seconds())
}

// handleTraced runs the dispatch under a handle span when this message is
// sampled. The trace context comes from the peer's read loop (which sampled
// at decode time) or — for directly injected messages that never crossed a
// read loop, e.g. Table II and the dispatch benchmarks — from the tracer
// here. It returns false when the message is not sampled, sending the
// caller down the normal path.
func (n *Node) handleTraced(tr *trace.Tracer, p *peer.Peer, msg wire.Message, rawLen int) bool {
	ctx := p.TraceCtx()
	owned := false
	if ctx == nil {
		if ctx = tr.Sample(); ctx == nil {
			return false
		}
		// Publish the context for the misbehave path below dispatch.
		owned = true
		p.SetTraceCtx(ctx)
	}
	cmd := msg.Command()
	if m := n.metrics; m != nil {
		if f := m.rxFast.Load(); f != nil && f.cmd == cmd {
			f.c.Inc()
		} else {
			m.countRxMiss(cmd)
		}
	} else {
		n.messagesProcessed.Add(1)
	}
	start := time.Now()
	n.dispatch(p, msg, rawLen)
	d := time.Since(start)
	if m := n.metrics; m != nil {
		m.handle.Observe(d.Seconds())
	}
	ctx.Record(trace.StageHandle, string(p.ID()), cmd, start, d)
	if owned {
		p.SetTraceCtx(nil)
	}
	return true
}

// dispatch is the node's message processing: the application-layer work
// reached only AFTER framing and checksum verification, exactly the ordering
// the paper's bogus-message vector exploits. Every Table I rule fires from
// here.
func (n *Node) dispatch(p *peer.Peer, msg wire.Message, rawLen int) {
	if n.cfg.Tap != nil {
		n.cfg.Tap.OnMessage(msg.Command(), n.cfg.Clock())
	}

	// Version handshake ordering (Table I VERSION/VERACK rules).
	switch m := msg.(type) {
	case *wire.MsgVersion:
		n.handleVersion(p, m)
		return
	case *wire.MsgVerAck:
		if !p.VersionReceived() {
			n.misbehave(p, msg.Command(), core.MessageBeforeVersion)
			return
		}
		p.MarkVerAckReceived()
		return
	default:
		if !p.VersionReceived() {
			// "Message before VERSION" scores 1 (inbound only).
			n.misbehave(p, msg.Command(), core.MessageBeforeVersion)
			return
		}
		if !p.VerAckReceived() {
			// "Message (other than VERSION) before VERACK" scores 1
			// in 0.20.0. The message is not processed.
			n.misbehave(p, msg.Command(), core.MessageBeforeVerack)
			return
		}
	}

	switch m := msg.(type) {
	case *wire.MsgPing:
		// No ban rule exists for PING in any studied version: the
		// node performs the full pipeline and answers — the paper's
		// score-free BM-DoS vector 1. Here as at every reply site
		// below, a reader too slow for its own requests loses the
		// reply; the queue counts what it refuses
		// (peer_send_queue_shed_total).
		_ = p.QueuePong(m.Nonce)
	case *wire.MsgPong:
		// Nonce bookkeeping would go here; no rule applies.
	case *wire.MsgAddr:
		n.handleAddr(p, m)
	case *wire.MsgGetAddr:
		n.handleGetAddr(p)
	case *wire.MsgInv:
		n.handleInv(p, m)
	case *wire.MsgGetData:
		n.handleGetData(p, m)
	case *wire.MsgNotFound:
		// Informational; no rule applies.
	case *wire.MsgGetBlocks:
		n.handleGetBlocks(p, m)
	case *wire.MsgGetHeaders:
		n.handleGetHeaders(p, m)
	case *wire.MsgHeaders:
		n.handleHeaders(p, m)
	case *wire.MsgTx:
		n.handleTx(p, m)
	case *wire.MsgBlock:
		n.handleBlock(p, m, m.Command())
	case *wire.MsgMemPool:
		n.handleMemPool(p)
	case *wire.MsgFilterLoad:
		n.handleFilterLoad(p, m)
	case *wire.MsgFilterAdd:
		n.handleFilterAdd(p, m)
	case *wire.MsgFilterClear:
		n.clearFilter(p.ID())
	case *wire.MsgSendHeaders, *wire.MsgFeeFilter, *wire.MsgSendCmpct, *wire.MsgMerkleBlock:
		// Preference/acknowledgement messages; recorded, no rule.
	case *wire.MsgCmpctBlock:
		n.handleCmpctBlock(p, m)
	case *wire.MsgGetBlockTxn:
		n.handleGetBlockTxn(p, m)
	case *wire.MsgBlockTxn:
		n.handleBlockTxn(p, m)
	case *wire.MsgReject:
		// Informational; no rule applies.
	}
}

// misbehave applies a Table I rule. cmd is the wire command of the
// triggering message; it flows into the forensics ledger so a ban chain
// names what each hit was carried by, and — when the message was sampled —
// into a misbehave span on its lifecycle trace. An event-driven peer stages
// the hit, with the evidence captured now, on its shard's MisbehaviorBatch;
// scoring then happens at the flush that ends the peer's visit. Either way
// the consequences are n.scored's.
func (n *Node) misbehave(p *peer.Peer, cmd string, rule core.RuleID) {
	ctx := p.TraceCtx()
	var start time.Time
	if ctx != nil {
		start = time.Now()
	}
	digest, payloadLen := p.LastEvidence()
	mctx := core.MisbehaviorContext{
		Command:       cmd,
		TraceID:       ctx.TraceID(),
		PayloadDigest: digest,
		PayloadLen:    payloadLen,
	}
	var res core.Result // stays zero for a staged hit: scored then runs at the flush
	if sink := p.MisbehaviorSink(); sink != nil {
		sink.StageMisbehavior(p, rule, mctx)
	} else {
		res = n.tracker.MisbehavingCtx(p.ID(), p.Inbound(), rule, mctx)
	}
	if ctx != nil {
		ctx.Add(trace.Span{
			Stage: trace.StageMisbehave, Peer: string(p.ID()), Cmd: cmd,
			Rule: rule.String(), Start: start, Duration: time.Since(start),
		})
	}
	n.scored(p, res)
}

// scored runs the node-level consequences of one tracker Result for the
// connection that earned it — the only place they are spelled out, called
// by the inline path right after MisbehavingCtx and by
// MisbehaviorBatch.Flush per flushed hit. Every applied hit is mirrored
// into the reputation engine, where a penalty that exhausts the netgroup
// budget tears down every connected member of the prefix; a ban
// disconnects the peer (it is in the ban filter now).
//
// A hit can land after its connection's teardown already forgot the
// identifier: staged, then flushed after a read error (not an EOF: the
// engine flushes before surfacing one) tore the connection down in the same
// visit, or applied by a handler racing a Disconnect. With nobody
// connected as the identifier it is forgotten again, so the next session
// from that [IP:Port] starts at zero, as if the hit had landed first.
func (n *Node) scored(p *peer.Peer, res core.Result) {
	if !res.Applied {
		return
	}
	gone := p.Disconnected() // sampled first: a netgroup teardown below may take p with it
	if e := n.cfg.Reputation; e != nil {
		if r := e.Penalize(p.ID(), res.Delta); r.GroupBanned {
			n.disconnectNetgroup(e, e.GroupOf(p.ID()))
		}
	}
	switch {
	case res.Banned:
		p.Disconnect()
	case gone:
		n.mu.Lock()
		_, held := n.peers[p.ID()]
		n.mu.Unlock()
		if !held {
			n.forgetScore(p.ID())
		}
	}
}

// forgetScore drops the identifier's live score state and logs the drop.
func (n *Node) forgetScore(id core.PeerID) {
	n.tracker.Forget(id)
	if s := n.cfg.BanStore; s != nil {
		s.AppendForget(id)
	}
}

func (n *Node) handleVersion(p *peer.Peer, m *wire.MsgVersion) {
	if !p.MarkVersionReceived(m) {
		// Table I: "Duplicate VERSION" scores 1 against inbound peers.
		n.misbehave(p, m.Command(), core.VersionDuplicate)
		return
	}
	if p.Inbound() && !p.VersionSent() {
		n.sendVersion(p)
	}
	_ = p.QueueMessage(&wire.MsgVerAck{})
}

func (n *Node) handleAddr(p *peer.Peer, m *wire.MsgAddr) {
	if len(m.AddrList) > wire.MaxAddrPerMsg {
		// Table I: "More than 1000 addresses" scores 20.
		n.misbehave(p, m.Command(), core.AddrOversize)
		return
	}
	for _, na := range m.AddrList {
		addr := net.JoinHostPort(na.IP.String(), strconv.Itoa(int(na.Port)))
		n.addrmgr.Add(addr)
	}
}

func (n *Node) handleGetAddr(p *peer.Peer) {
	reply := wire.NewMsgAddr()
	for _, addr := range n.addrmgr.All() {
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			continue
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			continue
		}
		na := wire.NewNetAddressIPPort(net.ParseIP(host), uint16(port), 0)
		na.Timestamp = n.cfg.Clock()
		reply.AddAddress(na)
		if len(reply.AddrList) >= wire.MaxAddrPerMsg {
			break
		}
	}
	_ = p.QueueMessage(reply)
}

func (n *Node) handleInv(p *peer.Peer, m *wire.MsgInv) {
	if len(m.InvList) > wire.MaxInvPerMsg {
		// Table I: "More than 50000 inventory entries" scores 20.
		n.misbehave(p, m.Command(), core.InvOversize)
		return
	}
	// Request any advertised objects we do not have.
	want := wire.NewMsgGetData()
	for _, iv := range m.InvList {
		hash := iv.Hash
		switch iv.Type {
		case wire.InvTypeBlock, wire.InvTypeWitnessBlock:
			if !n.chain.HaveBlock(&hash) && !n.chain.IsKnownInvalid(&hash) {
				want.AddInvVect(wire.NewInvVect(wire.InvTypeBlock, &hash))
			}
		case wire.InvTypeTx, wire.InvTypeWitnessTx:
			if !n.mempool.Have(&hash) {
				want.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &hash))
			}
		}
		if len(want.InvList) >= wire.MaxInvPerMsg {
			break
		}
	}
	if len(want.InvList) > 0 {
		_ = p.QueueMessage(want)
	}
}

func (n *Node) handleGetData(p *peer.Peer, m *wire.MsgGetData) {
	if len(m.InvList) > wire.MaxInvPerMsg {
		// Table I: "More than 50000 inventory entries" scores 20.
		n.misbehave(p, m.Command(), core.GetDataOversize)
		return
	}
	missing := wire.NewMsgNotFound()
	for _, iv := range m.InvList {
		hash := iv.Hash
		served := false
		switch iv.Type {
		case wire.InvTypeTx, wire.InvTypeWitnessTx:
			if tx, ok := n.mempool.Fetch(&hash); ok {
				_ = p.QueueMessage(tx)
				served = true
			}
		case wire.InvTypeBlock, wire.InvTypeWitnessBlock:
			if block, ok := n.StoredBlock(&hash); ok {
				_ = p.QueueMessage(block)
				served = true
			}
		case wire.InvTypeFilteredBlock:
			block, ok := n.StoredBlock(&hash)
			if !ok {
				break
			}
			filter := n.peerFilter(p.ID())
			if filter == nil {
				// No filter installed: serve the full block.
				_ = p.QueueMessage(block)
				served = true
				break
			}
			// BIP37: a MERKLEBLOCK proof followed by the matched
			// transactions.
			proof, matched := bloom.NewMerkleBlock(block, filter)
			_ = p.QueueMessage(proof)
			for i := range matched {
				for _, tx := range block.Transactions {
					if tx.TxHash() == matched[i] {
						_ = p.QueueMessage(tx)
					}
				}
			}
			served = true
		}
		if !served {
			missing.AddInvVect(wire.NewInvVect(iv.Type, &hash))
		}
	}
	if len(missing.InvList) > 0 {
		_ = p.QueueMessage(missing)
	}
}

func (n *Node) handleGetBlocks(p *peer.Peer, m *wire.MsgGetBlocks) {
	headers := n.chain.HeadersAfter(m.BlockLocatorHashes, 500)
	if len(headers) == 0 {
		return
	}
	reply := wire.NewMsgInv()
	for _, h := range headers {
		hash := h.BlockHash()
		reply.AddInvVect(wire.NewInvVect(wire.InvTypeBlock, &hash))
	}
	_ = p.QueueMessage(reply)
}

func (n *Node) handleGetHeaders(p *peer.Peer, m *wire.MsgGetHeaders) {
	reply := wire.NewMsgHeaders()
	reply.Headers = n.chain.HeadersAfter(m.BlockLocatorHashes, wire.MaxBlockHeadersPerMsg)
	_ = p.QueueMessage(reply)
}

// nonConnectingHeadersThreshold is how many consecutive non-connecting
// HEADERS deliveries trigger the Table I "10 non-connecting headers" rule.
const nonConnectingHeadersThreshold = 10

func (n *Node) handleHeaders(p *peer.Peer, m *wire.MsgHeaders) {
	if len(m.Headers) > wire.MaxBlockHeadersPerMsg {
		// Table I: "More than 2000 headers" scores 20.
		n.misbehave(p, m.Command(), core.HeadersOversize)
		return
	}
	if !blockchain.CheckHeadersContinuity(m.Headers) {
		// Table I: "Non-continuous headers sequence" scores 20.
		n.misbehave(p, m.Command(), core.HeadersNonContinuous)
		return
	}
	if len(m.Headers) == 0 {
		return
	}
	if !n.chain.HeadersConnect(m.Headers) {
		n.mu.Lock()
		n.headerCount[p.ID()]++
		count := n.headerCount[p.ID()]
		if count >= nonConnectingHeadersThreshold {
			n.headerCount[p.ID()] = 0
		}
		n.mu.Unlock()
		if count >= nonConnectingHeadersThreshold {
			// Table I: "10 non-connecting headers" scores 20.
			n.misbehave(p, m.Command(), core.HeadersNonConnecting)
		}
		return
	}
	n.mu.Lock()
	n.headerCount[p.ID()] = 0
	n.mu.Unlock()
}

func (n *Node) handleTx(p *peer.Peer, m *wire.MsgTx) {
	err := n.mempool.MaybeAcceptTransaction(m)
	if err != nil {
		if code, ok := mempool.TxRuleErrorCode(err); ok && code == mempool.ErrSegWitConsensus {
			// Table I: "Invalid by consensus rules of SegWit" scores 100.
			n.misbehave(p, m.Command(), core.TxInvalidSegWit)
		}
		return
	}
	n.txAccepted.Add(1)
	if e := n.cfg.Reputation; e != nil {
		e.Credit(p.ID(), reputation.CreditTx)
	}
	hash := m.TxHash()
	n.relayInv(wire.InvTypeTx, &hash, p.ID())
}

// handleBlock processes a full block. cmd names the wire command that
// carried it — BLOCK itself, or the CMPCTBLOCK/BLOCKTXN reconstruction
// paths — so forensic records attribute the hit to the real trigger.
func (n *Node) handleBlock(p *peer.Peer, m *wire.MsgBlock, cmd string) {
	_, err := n.chain.ProcessBlock(m)
	if err == nil {
		hash := m.BlockHash()
		n.mu.Lock()
		n.blockStore[hash] = m
		n.mu.Unlock()
		n.blocksAccepted.Add(1)
		// Good-score mechanism (§VIII): a valid BLOCK earns +1 credit.
		// The WAL records the post-increment total, not the delta, so
		// replay converges last-write-wins no matter where the covering
		// snapshot cut the stream.
		total := n.tracker.AddGood(p.ID())
		if s := n.cfg.BanStore; s != nil {
			s.AppendGood(p.ID(), total)
		}
		if e := n.cfg.Reputation; e != nil {
			e.Credit(p.ID(), reputation.CreditBlock)
		}
		if m := n.metrics; m != nil {
			m.goodCredit.Inc()
		}
		for _, tx := range m.Transactions[1:] {
			txHash := tx.TxHash()
			n.mempool.Remove(&txHash)
		}
		n.relayInv(wire.InvTypeBlock, &hash, p.ID())
		return
	}

	code, ok := blockchain.RuleErrorCode(err)
	if !ok {
		return
	}
	switch code {
	case blockchain.ErrBadMerkleRoot, blockchain.ErrDuplicateTx:
		// Table I: "Block data was mutated" scores 100.
		n.misbehave(p, cmd, core.BlockMutated)
	case blockchain.ErrCachedInvalid:
		// Table I: "Block was cached as invalid" scores 100, but only
		// against outbound peers (enforced by the tracker).
		n.misbehave(p, cmd, core.BlockCachedInvalid)
	case blockchain.ErrPrevBlockInvalid:
		// Table I: "Previous block is invalid" scores 100.
		n.misbehave(p, cmd, core.BlockPrevInvalid)
	case blockchain.ErrPrevBlockMissing:
		// Table I: "Previous block is missing" scores 10 — the rule the
		// paper calls out as arbitrarily harsh for an innocent condition.
		n.misbehave(p, cmd, core.BlockPrevMissing)
	case blockchain.ErrDuplicateBlock:
		// Re-delivery of a known-valid block is not scored.
	default:
		// Remaining invalid-block classes (bad PoW, structural
		// failures) take the generic invalid-block punishment, which
		// Table I folds into the mutated/invalid class at 100.
		n.misbehave(p, cmd, core.BlockMutated)
	}
}

func (n *Node) handleMemPool(p *peer.Peer) {
	reply := wire.NewMsgInv()
	for _, hash := range n.mempool.Hashes() {
		h := hash
		reply.AddInvVect(wire.NewInvVect(wire.InvTypeTx, &h))
		if len(reply.InvList) >= wire.MaxInvPerMsg {
			break
		}
	}
	_ = p.QueueMessage(reply)
}

func (n *Node) handleFilterLoad(p *peer.Peer, m *wire.MsgFilterLoad) {
	if len(m.Filter) > wire.MaxFilterLoadFilterSize || m.HashFuncs > wire.MaxFilterLoadHashFuncs {
		// Table I: "Bloom filter size > 36000 bytes" scores 100.
		n.misbehave(p, m.Command(), core.FilterLoadOversize)
		return
	}
	n.mu.Lock()
	n.filters[p.ID()] = bloom.LoadFilter(m)
	n.mu.Unlock()
}

func (n *Node) handleFilterAdd(p *peer.Peer, m *wire.MsgFilterAdd) {
	if len(m.Data) > wire.MaxFilterAddDataSize {
		// Table I: "Data item > 520 bytes" scores 100.
		n.misbehave(p, m.Command(), core.FilterAddOversize)
		return
	}
	// Table I (0.20.0 only): FILTERADD from a peer negotiated at protocol
	// version >= 70011 when bloom service is not offered scores 100.
	remote := p.RemoteVersion()
	if n.cfg.Services&wire.SFNodeBloom == 0 &&
		remote != nil && uint32(remote.ProtocolVersion) >= wire.NoBloomVersion {
		n.misbehave(p, m.Command(), core.FilterAddNoBloomVersion)
		return
	}
	n.mu.Lock()
	filter := n.filters[p.ID()]
	n.mu.Unlock()
	if filter == nil {
		return // filteradd without a loaded filter: ignored
	}
	filter.Add(m.Data)
}

func (n *Node) handleCmpctBlock(p *peer.Peer, m *wire.MsgCmpctBlock) {
	hash := m.Header.BlockHash()
	if err := blockchain.CheckProofOfWork(&hash, m.Header.Bits, n.cfg.ChainParams.PowLimit); err != nil {
		// Table I: "Invalid compact block data" scores 100.
		n.misbehave(p, m.Command(), core.CmpctBlockInvalid)
		return
	}
	if len(m.ShortIDs) == 0 && len(m.PrefilledTxs) == 0 {
		n.misbehave(p, m.Command(), core.CmpctBlockInvalid)
		return
	}
	if len(m.ShortIDs) == 0 {
		// Fully prefilled: reconstruct and process as a block.
		block := wire.NewMsgBlock(&m.Header)
		for _, ptx := range m.PrefilledTxs {
			block.AddTransaction(ptx.Tx)
		}
		n.handleBlock(p, block, m.Command())
		return
	}
	// Remember the header and request the missing transactions.
	n.mu.Lock()
	n.pendingCmpct[hash] = m.Header
	n.mu.Unlock()
	indexes := make([]uint32, len(m.ShortIDs))
	for i := range indexes {
		indexes[i] = uint32(i)
	}
	_ = p.QueueMessage(wire.NewMsgGetBlockTxn(&hash, indexes))
}

// handleBlockTxn attempts BIP152 block reconstruction: hash the delivered
// transactions, rebuild the merkle root, and process the block if it
// matches the pending compact header. This is the reconstruction work that
// makes BLOCKTXN the second most expensive message for the victim in
// Table II.
func (n *Node) handleBlockTxn(p *peer.Peer, m *wire.MsgBlockTxn) {
	n.mu.Lock()
	header, ok := n.pendingCmpct[m.BlockHash]
	n.mu.Unlock()
	if !ok {
		return
	}
	hashes := make([]chainhash.Hash, len(m.Txs))
	for i, tx := range m.Txs {
		hashes[i] = tx.TxHash()
	}
	if chainhash.MerkleRoot(hashes) != header.MerkleRoot {
		return // reconstruction failed; wait for the full block
	}
	n.mu.Lock()
	delete(n.pendingCmpct, m.BlockHash)
	n.mu.Unlock()
	block := wire.NewMsgBlock(&header)
	for _, tx := range m.Txs {
		block.AddTransaction(tx)
	}
	n.handleBlock(p, block, m.Command())
}

func (n *Node) handleGetBlockTxn(p *peer.Peer, m *wire.MsgGetBlockTxn) {
	block, ok := n.StoredBlock(&m.BlockHash)
	if !ok {
		return
	}
	txs := make([]*wire.MsgTx, 0, len(m.Indexes))
	for _, idx := range m.Indexes {
		if int(idx) >= len(block.Transactions) {
			// Table I: "Out-of-bounds transaction indices" scores 100.
			n.misbehave(p, m.Command(), core.GetBlockTxnOutOfBounds)
			return
		}
		txs = append(txs, block.Transactions[idx])
	}
	_ = p.QueueMessage(wire.NewMsgBlockTxn(&m.BlockHash, txs))
}

func (n *Node) clearFilter(id core.PeerID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.filters, id)
}

// peerFilter returns the peer's installed bloom filter, if any.
func (n *Node) peerFilter(id core.PeerID) *bloom.Filter {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.filters[id]
}

// relayInv announces an object to every handshake-complete peer except the
// originator.
func (n *Node) relayInv(typ wire.InvType, hash *chainhash.Hash, except core.PeerID) {
	n.mu.Lock()
	targets := make([]*peer.Peer, 0, len(n.peers))
	for id, p := range n.peers {
		if id == except || !p.HandshakeComplete() {
			continue
		}
		targets = append(targets, p)
	}
	n.mu.Unlock()
	for _, p := range targets {
		inv := wire.NewMsgInv()
		inv.AddInvVect(wire.NewInvVect(typ, hash))
		_ = p.QueueMessage(inv)
	}
}

// ProcessMessageDirect feeds a message through the dispatch pipeline as if
// it had arrived from p. The impact-cost experiments (Table II) use it to
// measure victim-side processing in isolation from transport noise.
func (n *Node) ProcessMessageDirect(p *peer.Peer, msg wire.Message, rawLen int) {
	n.handleMessage(p, msg, rawLen)
}
