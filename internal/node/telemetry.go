package node

import (
	"errors"
	"sync/atomic"
	"time"

	"banscore/internal/core"
	"banscore/internal/telemetry"
)

// nodeMetrics is the node's telemetry surface, built only when a Registry is
// configured. Hot-path instrumentation is push-style (atomic counters per
// decoded message and per rule hit); everything that already lives in node
// or peer state — slot occupancy, byte totals, queue depth — is registered
// pull-style so the message path pays nothing for it.
type nodeMetrics struct {
	journal *telemetry.Journal
	clock   func() time.Time

	msgRx  *telemetry.CounterVec // node_messages_received_total{command}
	msgTx  *telemetry.CounterVec // node_messages_sent_total{command}
	handle *telemetry.Histogram  // node_message_handle_seconds

	// rxFast and txFast are single-entry caches of the last resolved
	// per-command counter on each direction. Real traffic — and especially
	// flood traffic — is heavily skewed toward one command at a time, so
	// the common case becomes a pointer load plus a string compare instead
	// of a labeled registry lookup.
	rxFast atomic.Pointer[cmdCounter]
	txFast atomic.Pointer[cmdCounter]

	ruleHits   *telemetry.CounterVec // core_rule_hits_total{rule}
	rulePoints *telemetry.CounterVec // core_rule_points_total{rule}
	bans       *telemetry.Counter    // core_bans_total
	goodCredit *telemetry.Counter    // core_good_credits_total

	reconnectTries *telemetry.CounterVec // node_reconnect_attempts_total{result}

	// Totals of already-disconnected peers; the pull-style counters add
	// these to the live per-peer sums so disconnects never lose traffic
	// history.
	retiredBytesIn  atomic.Uint64
	retiredBytesOut atomic.Uint64
	retiredShed     atomic.Uint64
}

// newNodeMetrics registers the node's metric families with reg and returns
// the hot-path handles. Called once from New, after the Node struct exists
// (the pull-style collectors close over it).
func newNodeMetrics(n *Node, reg *telemetry.Registry, journal *telemetry.Journal) *nodeMetrics {
	m := &nodeMetrics{journal: journal, clock: n.cfg.Clock}

	reg.Describe("node_messages_received_total", "Messages decoded and dispatched by the node, by wire command.")
	m.msgRx = reg.CounterVec("node_messages_received_total", "command")
	reg.Describe("node_messages_sent_total", "Messages written to peers, by wire command.")
	m.msgTx = reg.CounterVec("node_messages_sent_total", "command")
	reg.Describe("node_message_handle_seconds", "Application-layer dispatch latency per message.")
	m.handle = reg.Histogram("node_message_handle_seconds")

	reg.Describe("core_rule_hits_total", "Applied Table I misbehavior rule hits, by rule name.")
	m.ruleHits = reg.CounterVec("core_rule_hits_total", "rule")
	reg.Describe("core_rule_points_total", "Ban-score points awarded, by rule name.")
	m.rulePoints = reg.CounterVec("core_rule_points_total", "rule")
	reg.Describe("core_bans_total", "Peers pushed over the ban threshold.")
	m.bans = reg.Counter("core_bans_total")
	reg.Describe("core_good_credits_total", "Good-score credits granted for valid BLOCK deliveries.")
	m.goodCredit = reg.Counter("core_good_credits_total")

	// The counters Stats() reports are read from the node at scrape time,
	// not kept a second time here.
	reg.Describe("node_conns_refused_total", "Inbound connections refused, by reason.")
	reg.CounterFunc("node_conns_refused_total", func() float64 { return float64(n.bannedRefused.Load()) },
		telemetry.L("reason", "banned"))
	reg.CounterFunc("node_conns_refused_total", func() float64 { return float64(n.slotRefused.Load()) },
		telemetry.L("reason", "slots"))
	reg.CounterFunc("node_conns_refused_total", func() float64 { return float64(n.netgroupRefused.Load()) },
		telemetry.L("reason", "netgroup"))
	reg.Describe("node_reconnects_total", "Outbound connections rebuilt after a peer was lost.")
	reg.CounterFunc("node_reconnects_total", func() float64 { return float64(n.reconnections.Load()) })

	// Resilience layer: slot-keeper attempts and connection deadlines.
	reg.Describe("node_reconnect_attempts_total", "Outbound slot-keeper dial attempts, by result.")
	m.reconnectTries = reg.CounterVec("node_reconnect_attempts_total", "result")
	reg.Describe("node_handshake_timeouts_total", "Peers dropped still pre-VERACK at the handshake deadline.")
	reg.CounterFunc("node_handshake_timeouts_total", func() float64 { return float64(n.handshakeTimeouts.Load()) })
	reg.Describe("peer_write_timeouts_total", "Peers dropped because a message write exceeded its deadline.")
	reg.CounterFunc("peer_write_timeouts_total", func() float64 { return float64(n.writeTimeouts.Load()) })
	reg.Describe("node_outbound_deficit", "Outbound slots lost and currently being refilled by keepers.")
	reg.GaugeFunc("node_outbound_deficit", func() float64 {
		return float64(n.pendingOutbound.Load())
	})

	// Connection-slot occupancy, read from node state at scrape time.
	reg.Describe("node_peers", "Connected peers, by direction.")
	reg.GaugeFunc("node_peers", func() float64 {
		in, _ := n.PeerCount()
		return float64(in)
	}, telemetry.L("direction", "inbound"))
	reg.GaugeFunc("node_peers", func() float64 {
		_, out := n.PeerCount()
		return float64(out)
	}, telemetry.L("direction", "outbound"))
	reg.Describe("node_slots", "Configured connection-slot capacity, by direction.")
	reg.GaugeFunc("node_slots", func() float64 { return float64(n.cfg.MaxInbound) },
		telemetry.L("direction", "inbound"))
	reg.GaugeFunc("node_slots", func() float64 { return float64(n.cfg.MaxOutbound) },
		telemetry.L("direction", "outbound"))

	reg.Describe("node_banned_identifiers", "Identifiers currently in the ban list.")
	reg.GaugeFunc("node_banned_identifiers", func() float64 {
		return float64(n.tracker.BanList().Count())
	})
	reg.Describe("core_tracked_peers", "Peers currently holding a non-zero ban score.")
	reg.GaugeFunc("core_tracked_peers", func() float64 {
		return float64(n.tracker.TrackedPeers())
	})
	reg.Describe("core_tracker_shards", "Lock shards in the ban-score tracker (fixed at startup).")
	reg.GaugeFunc("core_tracker_shards", func() float64 {
		return float64(n.tracker.ShardCount())
	})

	// Peer traffic totals: live connections summed at scrape time plus
	// the retired remainder.
	reg.Describe("peer_bytes_received_total", "Wire bytes read from peers (including disconnected ones).")
	reg.CounterFunc("peer_bytes_received_total", func() float64 {
		total := m.retiredBytesIn.Load()
		n.mu.Lock()
		for _, p := range n.peers {
			total += p.BytesReceived()
		}
		n.mu.Unlock()
		return float64(total)
	})
	reg.Describe("peer_bytes_sent_total", "Wire bytes written to peers (including disconnected ones).")
	reg.CounterFunc("peer_bytes_sent_total", func() float64 {
		total := m.retiredBytesOut.Load()
		n.mu.Lock()
		for _, p := range n.peers {
			total += p.BytesSent()
		}
		n.mu.Unlock()
		return float64(total)
	})
	reg.Describe("peer_send_queue_depth", "Messages waiting in peer send queues (back-pressure).")
	reg.GaugeFunc("peer_send_queue_depth", func() float64 {
		depth := 0
		n.mu.Lock()
		for _, p := range n.peers {
			depth += p.QueueDepth()
		}
		n.mu.Unlock()
		return float64(depth)
	})

	reg.Describe("peer_send_queue_shed_total", "Replies and relays dropped at a full peer send queue (including disconnected peers).")
	reg.CounterFunc("peer_send_queue_shed_total", func() float64 {
		total := m.retiredShed.Load()
		n.mu.Lock()
		for _, p := range n.peers {
			total += p.RepliesShed()
		}
		n.mu.Unlock()
		return float64(total)
	})

	// The ledger's loss shows on /metrics like the journal's and the tracer's.
	if l := n.cfg.TrackerConfig.Forensics; l != nil {
		reg.Describe("forensics_records_total", "Ban-forensics records ever appended to the ledger.")
		reg.CounterFunc("forensics_records_total", func() float64 { return float64(l.Stats().Total) })
		reg.Describe("forensics_records_trimmed_total", "Forensics records overwritten by newer ones in a full per-peer chain.")
		reg.CounterFunc("forensics_records_trimmed_total", func() float64 { return float64(l.Stats().TrimmedRecords) })
		reg.Describe("forensics_peers_evicted_total", "Peers whose whole forensics chain was evicted at the ledger's peer cap.")
		reg.CounterFunc("forensics_peers_evicted_total", func() float64 { return float64(l.Stats().EvictedPeers) })
	}
	return m
}

// cmdCounter pairs a command with its resolved receive counter for rxFast.
type cmdCounter struct {
	cmd string
	c   *telemetry.Counter
}

// countRxMiss resolves cmd's receive counter through the registry, refills
// the single-entry cache, and counts the message. The cache-hit fast path
// lives hand-inlined in Node.handleMessage.
func (m *nodeMetrics) countRxMiss(cmd string) uint64 {
	c := m.msgRx.With(cmd)
	m.rxFast.Store(&cmdCounter{cmd: cmd, c: c})
	return c.Inc()
}

// countTx is countRx for the send direction.
func (m *nodeMetrics) countTx(cmd string) {
	if f := m.txFast.Load(); f != nil && f.cmd == cmd {
		f.c.Inc()
		return
	}
	m.countTxMiss(cmd)
}

func (m *nodeMetrics) countTxMiss(cmd string) {
	c := m.msgTx.With(cmd)
	m.txFast.Store(&cmdCounter{cmd: cmd, c: c})
	c.Inc()
}

// event appends a journal entry stamped with the node clock.
func (m *nodeMetrics) event(typ telemetry.EventType, peer string, rule string, value float64, detail string) {
	m.journal.Record(telemetry.Event{
		At: m.clock(), Type: typ, Peer: peer, Rule: rule, Value: value, Detail: detail,
	})
}

// onRuleApplied is wired into core.Config.OnApplied.
func (m *nodeMetrics) onRuleApplied(id core.PeerID, rule core.RuleID, delta, total int) {
	name := rule.String()
	m.ruleHits.With(name).Inc()
	m.rulePoints.With(name).Add(uint64(delta))
	m.event(telemetry.EventScore, string(id), name, float64(delta), "")
}

// onBan is wired into core.Config.OnBan.
func (m *nodeMetrics) onBan(id core.PeerID, score int) {
	m.bans.Inc()
	m.event(telemetry.EventBan, string(id), "", float64(score), "")
}

// reconnectAttempt counts one slot-keeper dial attempt by outcome class.
func (m *nodeMetrics) reconnectAttempt(err error) {
	result := "ok"
	switch {
	case err == nil:
	case errors.Is(err, ErrOutboundSlotsFull), errors.Is(err, ErrAlreadyConnected):
		result = "slot-refilled"
	case errors.Is(err, ErrPeerBanned):
		result = "banned"
	default:
		result = "dial-error"
	}
	m.reconnectTries.With(result).Inc()
}

// peerRetired folds a disconnected peer's totals into the retained counters.
func (m *nodeMetrics) peerRetired(bytesIn, bytesOut, shed uint64) {
	m.retiredBytesIn.Add(bytesIn)
	m.retiredBytesOut.Add(bytesOut)
	m.retiredShed.Add(shed)
}
