package simnet

import "banscore/internal/telemetry"

// Instrument registers the fabric's traffic accounting with reg. Everything
// is pull-style: the fabric keeps its existing counters and the registry
// reads them at scrape time, so simulation throughput is unaffected.
func (n *Network) Instrument(reg *telemetry.Registry) {
	reg.Describe("simnet_bytes_delivered_total", "Bytes delivered across the fabric, all destinations.")
	reg.CounterFunc("simnet_bytes_delivered_total", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		var total uint64
		for _, b := range n.rxBytes {
			total += b
		}
		return float64(total)
	})
	reg.Describe("simnet_packets_delivered_total", "Datagrams and stream writes delivered across the fabric.")
	reg.CounterFunc("simnet_packets_delivered_total", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		var total uint64
		for _, p := range n.rxPackets {
			total += p
		}
		return float64(total)
	})
	reg.Describe("simnet_packets_dropped_total", "Datagrams discarded at full host queues (flooded-NIC loss).")
	reg.CounterFunc("simnet_packets_dropped_total", func() float64 {
		return float64(n.PacketsDropped())
	})
	reg.Describe("simnet_pipe_buffer_bytes_allocated_total", "Bytes allocated for stream ring buffers, all connections.")
	reg.CounterFunc("simnet_pipe_buffer_bytes_allocated_total", func() float64 {
		return float64(n.pipeBytesAllocated.Load())
	})
	reg.Describe("simnet_conns_active", "Open connection endpoints on the fabric.")
	reg.GaugeFunc("simnet_conns_active", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.conns))
	})
	reg.Describe("simnet_listeners_active", "Bound listeners on the fabric.")
	reg.GaugeFunc("simnet_listeners_active", func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(len(n.listeners))
	})

	// Fault layer (see faults.go): everything the chaos fabric injected.
	reg.Describe("simnet_fault_payloads_dropped_total", "Writes discarded by DropRate or partition blackholes.")
	reg.CounterFunc("simnet_fault_payloads_dropped_total", func() float64 {
		return float64(n.faultDrops.Load())
	})
	reg.Describe("simnet_fault_payloads_delayed_total", "Writes delivered through a latency queue.")
	reg.CounterFunc("simnet_fault_payloads_delayed_total", func() float64 {
		return float64(n.faultDelayed.Load())
	})
	reg.Describe("simnet_fault_conns_reset_total", "Connections killed by injected resets.")
	reg.CounterFunc("simnet_fault_conns_reset_total", func() float64 {
		return float64(n.faultResets.Load())
	})
	reg.Describe("simnet_fault_dials_failed_total", "Dials killed by injected failures, blackholes, or partitions.")
	reg.CounterFunc("simnet_fault_dials_failed_total", func() float64 {
		return float64(n.faultDialsFailed.Load())
	})
	reg.Describe("simnet_partitions_active", "Named partitions currently installed on the fabric.")
	reg.GaugeFunc("simnet_partitions_active", func() float64 {
		return float64(n.partActive.Load())
	})
}
