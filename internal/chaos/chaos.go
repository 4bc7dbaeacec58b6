// Package chaos assembles full mining clusters on a degraded simnet fabric
// and drives them through fault storms: packet loss, injected connection
// resets, dial failures, and timed partitions. It is the integration
// harness proving the resilience layer end to end — the outbound slot
// keeper refills lost slots, connection deadlines reclaim wedged slots,
// health reporting degrades and recovers, and the ban-score mechanism plus
// detection pipeline stay consistent through the weather.
package chaos

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"banscore/internal/detect"
	"banscore/internal/miner"
	"banscore/internal/node"
	"banscore/internal/simnet"
	"banscore/internal/trace"
	"banscore/internal/wire"
)

// Config parameterizes a Cluster. The victim is assembled from the
// embedded options: the cluster always observes and traces it, serves it at
// VictimAddr on its own fabric, and gives zero timeouts small, aggressive
// chaos-scale values — the point is to exercise recovery, not to wait out
// production-scale deadlines.
type Config struct {
	node.Options

	// HonestPeers is the number of honest remote nodes; zero selects
	// node.DefaultMaxOutbound (8), filling every outbound slot.
	HonestPeers int

	// HeartbeatEvery is the victim's keep-alive ping interval; zero
	// selects 50ms. Heartbeats keep healthy links inside IdleTimeout and
	// feed the monitor's message-rate feature.
	HeartbeatEvery time.Duration
}

func (c *Config) applyDefaults() {
	if c.HonestPeers == 0 {
		c.HonestPeers = node.DefaultMaxOutbound
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 50 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 1200 * time.Millisecond
	}
	if c.HandshakeTimeout == 0 {
		c.HandshakeTimeout = 300 * time.Millisecond
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 400 * time.Millisecond
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 500 * time.Millisecond
	}
	if c.ReconnectBackoff == 0 {
		c.ReconnectBackoff = 25 * time.Millisecond
	}
	if c.ReconnectMaxBackoff == 0 {
		c.ReconnectMaxBackoff = 300 * time.Millisecond
	}
	c.Observe = true
	if c.Trace == nil {
		c.Trace = &trace.Config{}
	}
}

// VictimAddr is where the cluster's victim node listens.
const VictimAddr = "10.0.0.1:8333"

// monitorWindow is the detection monitor's aggregation window.
const monitorWindow = 250 * time.Millisecond

// Cluster is one victim (mining, telemetry-instrumented, monitored) plus a
// set of honest peers, all on a shared fault-capable fabric.
type Cluster struct {
	*node.Assembly
	Victim  *node.Node // the assembly's Node
	Monitor *detect.Monitor
	Miner   *miner.Miner
	Honest  []*node.Node

	// HonestAddrs lists the honest listeners ("10.0.1.N:8333").
	HonestAddrs []string

	cfg       Config
	quit      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewCluster builds and starts the cluster: the victim serves at
// VictimAddr with the miner running, honest peers serve at their addresses,
// and the heartbeat loop is live. Outbound connections are not yet made —
// call ConnectAll.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	c := &Cluster{
		Monitor: detect.NewMonitor(monitorWindow),
		cfg:     cfg,
		quit:    make(chan struct{}),
	}
	fabric := simnet.NewNetwork()
	opts := cfg.Options
	opts.Fabric, opts.Listen, opts.Tap = fabric, VictimAddr, c.Monitor
	a, err := node.Assemble(opts)
	if err != nil {
		fabric.Close()
		return nil, err
	}
	c.Assembly, c.Victim = a, a.Node
	c.Miner = miner.New(c.Victim.Chain())
	c.Miner.Start()

	for i := 0; i < cfg.HonestPeers; i++ {
		addr := fmt.Sprintf("10.0.1.%d:8333", i+1)
		h := node.New(node.Config{IdleTimeout: time.Hour})
		l, err := c.Fabric.Listen(addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		h.Serve(l)
		c.Honest = append(c.Honest, h)
		c.HonestAddrs = append(c.HonestAddrs, addr)
		c.Victim.AddrManager().Add(addr)
	}

	c.wg.Add(1)
	go c.heartbeat()
	return c, nil
}

// ConnectAll dials every honest peer from the victim, filling its outbound
// slots.
func (c *Cluster) ConnectAll() error {
	for _, addr := range c.HonestAddrs {
		if err := c.Victim.Connect(addr); err != nil {
			return fmt.Errorf("connect %s: %w", addr, err)
		}
	}
	return nil
}

// heartbeat pings every connected peer from the victim on a fixed cadence.
// Replies keep healthy links inside the aggressive chaos IdleTimeout —
// silenced links (partitions, dead remotes) idle out and surface to the
// slot keeper.
func (c *Cluster) heartbeat() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.HeartbeatEvery)
	defer ticker.Stop()
	seq := uint64(0)
	for {
		select {
		case <-c.quit:
			return
		case <-ticker.C:
			for _, pr := range c.Victim.RankPeers() {
				if p, ok := c.Victim.Peer(pr.ID); ok {
					seq++
					_ = p.QueueMessage(wire.NewMsgPing(seq))
				}
			}
		}
	}
}

// Healthz performs an in-process request against the victim's /healthz
// endpoint — the exact bytes an orchestrator would see, without binding a
// real socket inside a chaos test.
func (c *Cluster) Healthz() (status int, doc map[string]any, err error) {
	rec := httptest.NewRecorder()
	c.Server.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	doc = map[string]any{}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		return rec.Code, nil, err
	}
	return rec.Code, doc, nil
}

// Close tears the whole cluster down in dependency order and returns the
// error of the victim's ban store closing, if the victim has one. Safe
// to call twice.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.quit)
		c.wg.Wait()
		c.Miner.Stop()
		_ = c.Assembly.Close()
		for _, h := range c.Honest {
			h.Stop()
		}
		c.Fabric.Close()
	})
	return c.Assembly.Close()
}

// WaitGoroutines polls until the process goroutine count settles at or
// below limit, returning the final count and whether the limit was met.
// Chaos scenarios use it to prove storms leak nothing.
func WaitGoroutines(limit int, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		if n = runtime.NumGoroutine(); n <= limit {
			return n, true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n, false
}
