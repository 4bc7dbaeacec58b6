package simnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"banscore/internal/trace"
)

// Errors returned by network operations.
var (
	// ErrAddrInUse: the listen address is taken.
	ErrAddrInUse = errors.New("simnet: address already in use")

	// ErrConnRefused: nothing is listening at the dial target.
	ErrConnRefused = errors.New("simnet: connection refused")

	// ErrNetClosed: the listener or network has been closed.
	ErrNetClosed = errors.New("simnet: use of closed network connection")

	// ErrConnNotFound: no active connection matches the endpoints.
	ErrConnNotFound = errors.New("simnet: no such connection")
)

// link identifies one direction of a connection.
type link struct {
	from Addr
	to   Addr
}

// Network is the in-memory network fabric. It is safe for concurrent use.
type Network struct {
	mu        sync.Mutex
	listeners map[Addr]*Listener
	conns     map[*Conn]struct{}
	sniffers  []*Sniffer
	rxBytes   map[Addr]uint64
	rxPackets map[Addr]uint64
	closed    bool

	// listenBacklog overrides the per-listener accept queue depth (the
	// default 128 models a kernel SOMAXCONN; swarm harnesses admitting
	// tens of thousands of peers raise it via SetListenBacklog).
	listenBacklog int

	// snifferCount gates the delivery fast path: while zero, writes
	// account into per-Conn atomics and never touch mu.
	snifferCount atomic.Int32

	drops atomic.Uint64

	// Fault layer (see faults.go). faultsActive and partActive are cheap
	// guards so the fault-free fast paths pay one atomic load at most.
	defaultFaults *FaultPlan
	linkFaults    map[linkKey]*FaultPlan
	failNextDials map[string]int
	partitions    map[string]*partition
	faultsActive  atomic.Int32
	partActive    atomic.Int32
	faultSeq      atomic.Uint64

	faultDrops       atomic.Uint64
	faultDelayed     atomic.Uint64
	faultResets      atomic.Uint64
	faultDialsFailed atomic.Uint64

	// tracer, when set, samples connection writes into conn_write
	// lifecycle spans. Atomic so the write hot path pays one pointer
	// load when tracing is not installed.
	tracer atomic.Pointer[trace.Tracer]
}

// NewNetwork returns an empty fabric.
func NewNetwork() *Network {
	return &Network{
		listeners: make(map[Addr]*Listener),
		conns:     make(map[*Conn]struct{}),
		rxBytes:   make(map[Addr]uint64),
		rxPackets: make(map[Addr]uint64),
	}
}

// Listener accepts simnet connections at a fixed address.
type Listener struct {
	network *Network
	addr    Addr

	mu      sync.Mutex
	backlog chan *Conn
	closed  bool
}

var _ net.Listener = (*Listener)(nil)

// Listen binds a listener to addr (e.g. "10.0.0.1:8333").
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetClosed
	}
	a := Addr(addr)
	if _, taken := n.listeners[a]; taken {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	backlog := n.listenBacklog
	if backlog <= 0 {
		backlog = 128
	}
	l := &Listener{
		network: n,
		addr:    a,
		backlog: make(chan *Conn, backlog),
	}
	n.listeners[a] = l
	return l, nil
}

// SetListenBacklog sets the accept queue depth for listeners bound after
// the call (n <= 0 restores the default 128). A swarm scenario dialing
// faster than the victim accepts needs more than a kernel-sized backlog to
// avoid spurious connection-refused churn.
func (n *Network) SetListenBacklog(depth int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.listenBacklog = depth
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, ok := <-l.backlog
	if !ok {
		return nil, ErrNetClosed
	}
	return conn, nil
}

// Close implements net.Listener.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	close(l.backlog)
	l.mu.Unlock()

	l.network.mu.Lock()
	delete(l.network.listeners, l.addr)
	l.network.mu.Unlock()
	return nil
}

// Addr implements net.Listener.
func (l *Listener) Addr() net.Addr { return l.addr }

// Dial connects from the given source address to a listening target. The
// source address is caller-chosen — simnet, like the open internet the
// paper's threat model assumes, performs no source validation, which is
// precisely what makes Sybil identifiers and spoofing free.
func (n *Network) Dial(from, to string) (*Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNetClosed
	}
	c2sPlan, s2cPlan, faultErr, locked := n.checkDialFaults(Addr(from), Addr(to))
	if faultErr != nil {
		if locked {
			n.mu.Unlock()
		}
		return nil, faultErr
	}
	l, ok := n.listeners[Addr(to)]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, to)
	}

	clientToServer := newPipeHalf()
	serverToClient := newPipeHalf()
	client := &Conn{
		network: n,
		local:   Addr(from),
		remote:  Addr(to),
		recv:    serverToClient,
		send:    clientToServer,
	}
	server := &Conn{
		network: n,
		local:   Addr(to),
		remote:  Addr(from),
		recv:    clientToServer,
		send:    serverToClient,
	}
	if c2sPlan.active() {
		client.faults = newFaultState(*c2sPlan, client.local, client.remote, n.faultSeq.Add(1))
	}
	if s2cPlan.active() {
		server.faults = newFaultState(*s2cPlan, server.local, server.remote, n.faultSeq.Add(1))
	}
	n.conns[client] = struct{}{}
	n.conns[server] = struct{}{}
	n.mu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		client.Close()
		return nil, ErrConnRefused
	}
	select {
	case l.backlog <- server:
		l.mu.Unlock()
		return client, nil
	default:
		l.mu.Unlock()
		client.Close()
		return nil, fmt.Errorf("%w: accept backlog full at %s", ErrConnRefused, to)
	}
}

// SetTracer installs (or, with nil, removes) the lifecycle tracer sampling
// fabric writes. Connections observe the change immediately.
func (n *Network) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// FindConn returns the active connection endpoint whose local/remote
// addresses match (the victim-side endpoint of the from→to stream). An
// attacker does not call this directly — it sniffs to learn endpoints — but
// the injection API needs a handle.
func (n *Network) FindConn(local, remote string) (*Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for c := range n.conns {
		if c.local == Addr(local) && c.remote == Addr(remote) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %s <- %s", ErrConnNotFound, local, remote)
}

// Inject delivers data into the receive stream of the connection endpoint
// at `to` as if it had been sent by `from` — the simulation of spoofed TCP
// segment injection. The caller must present the stream's current sequence
// number (learned by sniffing, per Algorithm 1 of the paper); a mismatch —
// or a receive buffer already at its cap — is discarded like an
// out-of-window segment. Inject never blocks.
func (n *Network) Inject(from, to string, seq uint64, data []byte) error {
	victim, err := n.FindConn(to, from)
	if err != nil {
		return err
	}
	// The receive half's seq counts every byte enqueued toward `to`.
	if err := victim.recv.inject(seq, data); err != nil {
		return err
	}
	n.observe(Addr(from), Addr(to), data)
	return nil
}

// dropConn removes a closed connection endpoint, folding its fast-path
// delivery counters into the per-address totals so accounting survives
// churn.
func (n *Network) dropConn(c *Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if b := c.rxBytes.Swap(0); b != 0 {
		n.rxBytes[c.remote] += b
	}
	if p := c.rxPackets.Swap(0); p != 0 {
		n.rxPackets[c.remote] += p
	}
	delete(n.conns, c)
}

// observe mirrors delivered bytes to sniffers and bandwidth counters.
func (n *Network) observe(from, to Addr, data []byte) {
	n.mu.Lock()
	n.rxBytes[to] += uint64(len(data))
	n.rxPackets[to]++
	taps := make([]*Sniffer, len(n.sniffers))
	copy(taps, n.sniffers)
	n.mu.Unlock()
	for _, s := range taps {
		s.deliver(from, to, data)
	}
}

// BytesDelivered returns the total bytes delivered to addr — the victim's
// consumed bandwidth ("Bandwidth DoSed" in Table III). Live connections'
// fast-path counters are summed in, so the figure is exact at any moment.
func (n *Network) BytesDelivered(addr string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := n.rxBytes[Addr(addr)]
	for c := range n.conns {
		if c.remote == Addr(addr) {
			total += c.rxBytes.Load()
		}
	}
	return total
}

// PacketsDelivered returns the number of writes delivered to addr.
func (n *Network) PacketsDelivered(addr string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := n.rxPackets[Addr(addr)]
	for c := range n.conns {
		if c.remote == Addr(addr) {
			total += c.rxPackets.Load()
		}
	}
	return total
}

// PacketsDropped returns how many datagrams the fabric discarded because the
// destination host's queue was full — the flooded-NIC loss an ICMP storm
// produces.
func (n *Network) PacketsDropped() uint64 { return n.drops.Load() }

// ResetCounters zeroes the bandwidth accounting.
func (n *Network) ResetCounters() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rxBytes = make(map[Addr]uint64)
	n.rxPackets = make(map[Addr]uint64)
	for c := range n.conns {
		c.rxBytes.Store(0)
		c.rxPackets.Store(0)
	}
}

// Close shuts the fabric down: all listeners and connections are closed.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	listeners := make([]*Listener, 0, len(n.listeners))
	for _, l := range n.listeners {
		listeners = append(listeners, l)
	}
	conns := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()

	for _, l := range listeners {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}
