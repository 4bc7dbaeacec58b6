package simnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// Fault-layer errors.
var (
	// ErrInjectedDialFailure: a dial was killed by FaultPlan.DialFailRate
	// or Network.FailNextDials.
	ErrInjectedDialFailure = errors.New("simnet: injected dial failure")

	// ErrUnreachable: the dial crossed an active partition.
	ErrUnreachable = errors.New("simnet: network unreachable")
)

// ErrDialTimeout is returned by a blackholed dial after BlackholeDelay. It
// is a net.Error timeout, like a SYN that was never answered.
var ErrDialTimeout error = &dialTimeoutError{}

type dialTimeoutError struct{}

func (*dialTimeoutError) Error() string   { return "simnet: dial timeout (blackholed)" }
func (*dialTimeoutError) Timeout() bool   { return true }
func (*dialTimeoutError) Temporary() bool { return true }

// DefaultBlackholeDelay is how long a blackholed dial hangs before failing
// when the plan does not specify BlackholeDelay.
const DefaultBlackholeDelay = 250 * time.Millisecond

// maxDelayQueue bounds the per-direction delayed-delivery queue; producers
// block beyond it (the fault layer's stand-in for the kernel's qdisc cap).
const maxDelayQueue = 8192

// FaultPlan describes the degradation of one link direction. The zero value
// injects nothing. Plans are deterministic: all randomness (jitter, drops,
// dial failures) flows from Seed mixed with the link endpoints, so a seeded
// scenario replays identically.
type FaultPlan struct {
	// Latency delays every delivered payload by this much (one-way).
	Latency time.Duration

	// Jitter adds a uniform random [0, Jitter) to each payload's delay.
	Jitter time.Duration

	// DropRate is the probability in [0,1] that a written payload is
	// silently discarded instead of delivered. On a stream transport a
	// dropped payload desynchronizes the framing — exactly the corruption
	// a lossy path inflicts on a real TCP connection whose retransmits
	// are suppressed — so peers typically detect it as a malformed stream
	// or a silent stall.
	DropRate float64

	// ResetAfterBytes hard-resets the connection (both directions fail
	// with ErrConnReset, buffers discarded) once the faulted direction
	// has attempted to send more than this many bytes. Zero disables.
	ResetAfterBytes int64

	// DialFailRate is the probability in [0,1] that a dial over this link
	// fails immediately with ErrInjectedDialFailure.
	DialFailRate float64

	// DialBlackhole makes dials over this link hang for BlackholeDelay
	// and then fail with ErrDialTimeout (an unanswered SYN).
	DialBlackhole bool

	// BlackholeDelay is how long a blackholed dial hangs; zero selects
	// DefaultBlackholeDelay.
	BlackholeDelay time.Duration

	// Seed drives the plan's RNG; zero selects a fixed default, so two
	// runs of the same scenario observe the same faults either way.
	Seed int64
}

// active reports whether the plan injects anything at all.
func (fp *FaultPlan) active() bool {
	if fp == nil {
		return false
	}
	return fp.Latency > 0 || fp.Jitter > 0 || fp.DropRate > 0 ||
		fp.ResetAfterBytes > 0 || fp.DialFailRate > 0 || fp.DialBlackhole
}

// delayedWrite is one payload in flight on a latency-faulted link.
type delayedWrite struct {
	data []byte
	due  time.Time
}

// faultState is the per-connection, per-direction instantiation of a
// FaultPlan: its own RNG, reset byte counter, and delayed-delivery queue.
type faultState struct {
	plan FaultPlan

	mu      sync.Mutex
	cond    *sync.Cond
	rng     *rand.Rand
	sent    int64
	q       []delayedWrite
	started bool
	closed  bool
}

// newFaultState binds one direction's fault plan. seq is the fabric's dial
// sequence number: mixing it into the RNG seed gives every connection on a
// link its own loss schedule (a retried dial must not replay the exact drop
// pattern that killed its predecessor) while the fabric as a whole stays
// reproducible — the dial order, and therefore every schedule, is a pure
// function of the test's actions and the configured Seed.
func newFaultState(plan FaultPlan, from, to Addr, seq uint64) *faultState {
	seed := plan.Seed
	if seed == 0 {
		seed = 0x5eedfa17
	}
	h := fnv.New64a()
	h.Write([]byte(from))
	h.Write([]byte{'|'})
	h.Write([]byte(to))
	fs := &faultState{
		plan: plan,
		rng:  rand.New(rand.NewSource(seed ^ int64(h.Sum64()) ^ int64(seq*0x9e3779b97f4a7c15))),
	}
	fs.cond = sync.NewCond(&fs.mu)
	return fs
}

// closeState wakes any producer blocked on the delay queue and lets the
// delivery goroutine drain out.
func (fs *faultState) closeState() {
	fs.mu.Lock()
	fs.closed = true
	fs.q = nil
	fs.cond.Broadcast()
	fs.mu.Unlock()
}

// writeFaulty is Conn.Write for a faulted direction: reset check, loss
// check, then either delayed or direct delivery.
func (c *Conn) writeFaulty(p []byte) (int, error) {
	fs := c.faults
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	fs.sent += int64(len(p))
	if fs.plan.ResetAfterBytes > 0 && fs.sent > fs.plan.ResetAfterBytes {
		fs.mu.Unlock()
		c.network.faultResets.Add(1)
		c.reset()
		return 0, ErrConnReset
	}
	if fs.plan.DropRate > 0 && fs.rng.Float64() < fs.plan.DropRate {
		fs.mu.Unlock()
		c.network.faultDrops.Add(1)
		return len(p), nil
	}
	delay := fs.plan.Latency
	if fs.plan.Jitter > 0 {
		delay += time.Duration(fs.rng.Int63n(int64(fs.plan.Jitter)))
	}
	if delay <= 0 {
		fs.mu.Unlock()
		n, err := c.send.write(p)
		if err != nil {
			return n, err
		}
		c.observeDelivery(p[:n])
		return n, nil
	}

	// Delayed delivery: enqueue a copy (the caller may reuse p) for the
	// wire goroutine, which preserves FIFO order like a TCP stream.
	for len(fs.q) >= maxDelayQueue && !fs.closed {
		fs.cond.Wait()
	}
	if fs.closed {
		fs.mu.Unlock()
		return 0, io.ErrClosedPipe
	}
	data := make([]byte, len(p))
	copy(data, p)
	fs.q = append(fs.q, delayedWrite{data: data, due: clk.Now().Add(delay)})
	if !fs.started {
		fs.started = true
		go c.deliveryLoop(fs)
	}
	fs.cond.Broadcast()
	fs.mu.Unlock()
	c.network.faultDelayed.Add(1)
	return len(p), nil
}

// deliveryLoop drains the delayed-write queue of one faulted direction,
// holding each payload until its due time. It exits when the connection
// closes or the receiving half dies.
func (c *Conn) deliveryLoop(fs *faultState) {
	for {
		fs.mu.Lock()
		for len(fs.q) == 0 && !fs.closed {
			fs.cond.Wait()
		}
		if len(fs.q) == 0 {
			fs.mu.Unlock()
			return
		}
		dw := fs.q[0]
		fs.q = fs.q[1:]
		fs.cond.Broadcast() // room for blocked producers
		fs.mu.Unlock()

		if d := clk.Until(dw.due); d > 0 {
			clk.Sleep(d)
		}
		if _, err := c.send.write(dw.data); err != nil {
			fs.closeState()
			return
		}
		c.observeDelivery(dw.data)
	}
}

// linkKey identifies one direction of a link in the fault table. Either
// side may be an exact "host:port", a bare "host", or the wildcard "*".
type linkKey struct {
	from, to string
}

// hostOf strips the port from an address ("10.0.0.1:8333" → "10.0.0.1").
func hostOf(addr string) string {
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[:i]
	}
	return addr
}

// SetDefaultFaults installs (or with nil clears) the plan applied to every
// direction of every subsequently dialed connection that has no more
// specific link plan. Established connections keep the plan they were
// dialed under — a repaired fabric does not heal a flaky path in place.
func (n *Network) SetDefaultFaults(plan *FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defaultFaults = plan
	n.recountFaults()
}

// SetLinkFaults installs a plan for the from→to direction only (one-way
// degradation). from and to may each be an exact "host:port", a bare host,
// or "*". A nil plan removes the entry. Two-way plans are two calls.
func (n *Network) SetLinkFaults(from, to string, plan *FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.linkFaults == nil {
		n.linkFaults = make(map[linkKey]*FaultPlan)
	}
	k := linkKey{from: from, to: to}
	if plan == nil {
		delete(n.linkFaults, k)
	} else {
		n.linkFaults[k] = plan
	}
	n.recountFaults()
}

// SetLinkFaultsBoth installs the same plan on both directions of a link.
func (n *Network) SetLinkFaultsBoth(a, b string, plan *FaultPlan) {
	n.SetLinkFaults(a, b, plan)
	n.SetLinkFaults(b, a, plan)
}

// FailNextDials deterministically kills the next count dials whose target
// matches to (exact address, bare host, or "*"), regardless of source —
// the focused tool for reconnection regression tests. It stacks with any
// probabilistic DialFailRate.
func (n *Network) FailNextDials(to string, count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.failNextDials == nil {
		n.failNextDials = make(map[string]int)
	}
	if count <= 0 {
		delete(n.failNextDials, to)
	} else {
		n.failNextDials[to] = count
	}
	n.recountFaults()
}

// recountFaults refreshes the cheap Dial-path guard. Caller holds n.mu.
func (n *Network) recountFaults() {
	if n.defaultFaults.active() || len(n.linkFaults) > 0 || len(n.failNextDials) > 0 {
		n.faultsActive.Store(1)
	} else {
		n.faultsActive.Store(0)
	}
}

// resolveFaults returns the plan governing the from→to direction, or nil.
// Specificity wins: exact endpoints beat bare hosts beat wildcards beat the
// fabric default. Caller holds n.mu.
func (n *Network) resolveFaults(from, to Addr) *FaultPlan {
	if len(n.linkFaults) > 0 {
		froms := [3]string{string(from), hostOf(string(from)), "*"}
		tos := [3]string{string(to), hostOf(string(to)), "*"}
		for _, f := range froms {
			for _, t := range tos {
				if plan, ok := n.linkFaults[linkKey{from: f, to: t}]; ok {
					return plan
				}
			}
		}
	}
	return n.defaultFaults
}

// consumeFailNext reports whether a dial to `to` should be killed by a
// pending FailNextDials budget, decrementing it. Caller holds n.mu.
func (n *Network) consumeFailNext(to Addr) bool {
	if len(n.failNextDials) == 0 {
		return false
	}
	for _, key := range [3]string{string(to), hostOf(string(to)), "*"} {
		if left, ok := n.failNextDials[key]; ok && left > 0 {
			if left == 1 {
				delete(n.failNextDials, key)
			} else {
				n.failNextDials[key] = left - 1
			}
			n.recountFaults()
			return true
		}
	}
	return false
}

// checkDialFaults applies partition, deterministic, and plan-level dial
// faults for a from→to dial. It returns a non-nil error when the dial must
// fail, and otherwise the plans to bind to each direction of the new
// connection. Called with n.mu held; may unlock/relock for blackhole waits
// — it returns locked == false when it failed after unlocking.
func (n *Network) checkDialFaults(from, to Addr) (c2s, s2c *FaultPlan, err error, locked bool) {
	if n.partActive.Load() != 0 && n.isPartitionedLocked(from, to) {
		n.faultDialsFailed.Add(1)
		return nil, nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to), true
	}
	if n.faultsActive.Load() == 0 {
		return nil, nil, nil, true
	}
	if n.consumeFailNext(to) {
		n.faultDialsFailed.Add(1)
		return nil, nil, fmt.Errorf("%w: %s -> %s", ErrInjectedDialFailure, from, to), true
	}
	c2s = n.resolveFaults(from, to)
	s2c = n.resolveFaults(to, from)
	if c2s.active() && (c2s.DialFailRate > 0 || c2s.DialBlackhole) {
		// Dial-level faults draw from a transient state so the decision
		// is still seeded by (plan, link, attempt).
		fs := newFaultState(*c2s, from, to, n.faultSeq.Add(1))
		if c2s.DialBlackhole {
			delay := c2s.BlackholeDelay
			if delay == 0 {
				delay = DefaultBlackholeDelay
			}
			n.mu.Unlock()
			clk.Sleep(delay)
			n.faultDialsFailed.Add(1)
			return nil, nil, fmt.Errorf("dial %s -> %s: %w", from, to, ErrDialTimeout), false
		}
		if fs.rng.Float64() < c2s.DialFailRate {
			n.faultDialsFailed.Add(1)
			return nil, nil, fmt.Errorf("%w: %s -> %s", ErrInjectedDialFailure, from, to), true
		}
	}
	return c2s, s2c, nil, true
}

// partition is one named bisection of the fabric.
type partition struct {
	sideA map[string]struct{} // hosts and exact addrs
	sideB map[string]struct{}
}

func (p *partition) severs(a, b Addr) bool {
	return (p.contains(p.sideA, a) && p.contains(p.sideB, b)) ||
		(p.contains(p.sideA, b) && p.contains(p.sideB, a))
}

func (p *partition) contains(side map[string]struct{}, addr Addr) bool {
	if _, ok := side[string(addr)]; ok {
		return true
	}
	_, ok := side[hostOf(string(addr))]
	return ok
}

func toSet(members []string) map[string]struct{} {
	set := make(map[string]struct{}, len(members))
	for _, m := range members {
		set[m] = struct{}{}
	}
	return set
}

// Partition installs (or replaces) a named bisection: traffic between any
// address in sideA and any in sideB is blackholed, and dials across the cut
// fail with ErrUnreachable, until Heal(name). Members are exact "host:port"
// addresses or bare hosts. Existing connections are not closed — like a
// real routing partition, endpoints only notice through silence (read
// deadlines, idle timeouts).
func (n *Network) Partition(name string, sideA, sideB []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitions == nil {
		n.partitions = make(map[string]*partition)
	}
	if _, existed := n.partitions[name]; !existed {
		n.partActive.Add(1)
	}
	n.partitions[name] = &partition{sideA: toSet(sideA), sideB: toSet(sideB)}
}

// Heal removes the named partition. Healing an unknown name is a no-op.
func (n *Network) Heal(name string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.partitions[name]; ok {
		delete(n.partitions, name)
		n.partActive.Add(-1)
	}
}

func (n *Network) isPartitioned(a, b Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.isPartitionedLocked(a, b)
}

// isPartitionedLocked is isPartitioned with n.mu held.
func (n *Network) isPartitionedLocked(a, b Addr) bool {
	for _, p := range n.partitions {
		if p.severs(a, b) {
			return true
		}
	}
	return false
}

// FaultStats is a snapshot of the fault layer's injection counters.
type FaultStats struct {
	// PayloadsDropped counts writes discarded by DropRate or blackholed
	// by a partition.
	PayloadsDropped uint64

	// PayloadsDelayed counts writes that traversed a latency queue.
	PayloadsDelayed uint64

	// ConnsReset counts connections killed by ResetAfterBytes.
	ConnsReset uint64

	// DialsFailed counts dials killed by injected failures, blackholes,
	// or partitions.
	DialsFailed uint64
}

// FaultStats returns the fault layer's injection counters.
func (n *Network) FaultStats() FaultStats {
	return FaultStats{
		PayloadsDropped: n.faultDrops.Load(),
		PayloadsDelayed: n.faultDelayed.Load(),
		ConnsReset:      n.faultResets.Load(),
		DialsFailed:     n.faultDialsFailed.Load(),
	}
}
