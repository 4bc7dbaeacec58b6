package node

// BanTableSoftLimit is the banned-identifier count past which the node
// reports itself degraded. The ban table grows one entry per banned
// [IP:Port] and a Defamation-style attacker can inflate it deliberately;
// saturation is an operational signal, not a hard cap.
const BanTableSoftLimit = 10000

// Health reports whether the node considers itself healthy, plus the
// fields behind the verdict. It degrades when any outbound slot is lost
// and still being refilled (the keeper deficit) or when the ban table has
// saturated past the soft limit. The telemetry server's /healthz endpoint
// consumes this via Server.SetHealth.
func (n *Node) Health() (bool, map[string]any) {
	deficit := int(n.pendingOutbound.Load())
	banned := n.tracker.BanList().Count()
	inbound, outbound := n.PeerCount()

	healthy := true
	reasons := make([]string, 0, 2)
	if deficit > 0 {
		healthy = false
		reasons = append(reasons, "outbound-deficit")
	}
	if banned > BanTableSoftLimit {
		healthy = false
		reasons = append(reasons, "ban-table-saturated")
	}

	// Persistence degrades before it interferes: when fsync latency or
	// the WAL backlog exceeds budget the store sheds appends rather than
	// blocking the message path, and the node reports itself degraded so
	// operators know durability — not traffic — is what's being lost.
	var storeStatus map[string]any
	if s := n.cfg.BanStore; s != nil {
		st := s.Status()
		storeStatus = map[string]any{
			"lsn":           st.LSN,
			"pending_bytes": st.PendingBytes,
			"dropped":       st.Dropped,
			"fsync_seconds": st.LastFsyncSeconds,
		}
		if !st.Healthy {
			healthy = false
			reasons = append(reasons, "banstore-degraded")
		}
	}

	fields := map[string]any{
		"peers_inbound":    inbound,
		"peers_outbound":   outbound,
		"outbound_deficit": deficit,
		"banned":           banned,
	}
	if storeStatus != nil {
		fields["banstore"] = storeStatus
	}
	if e := n.cfg.Reputation; e != nil {
		_, probation, netgroupBanned := e.TrackedGroups()
		fields["netgroups_probation"] = probation
		fields["netgroups_banned"] = netgroupBanned
	}
	if !healthy {
		fields["degraded"] = reasons
	}
	return healthy, fields
}
