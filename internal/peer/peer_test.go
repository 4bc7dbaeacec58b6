package peer

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// connPair dials a simnet listener and returns both ends of the connection.
func connPair(tb testing.TB) (server, client net.Conn, n *simnet.Network) {
	tb.Helper()
	n = simnet.NewNetwork()
	l, err := n.Listen("10.0.0.1:8333")
	if err != nil {
		tb.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err = n.Dial("10.0.0.2:50001", "10.0.0.1:8333")
	if err != nil {
		tb.Fatal(err)
	}
	return <-accepted, client, n
}

// pair builds a connected peer pair over simnet. Returned peers are started.
func pair(t *testing.T, serverCfg, clientCfg Config) (server, client *Peer, cleanup func()) {
	t.Helper()
	serverConn, clientConn, n := connPair(t)

	serverCfg.Net = wire.SimNet
	clientCfg.Net = wire.SimNet
	server = New(serverConn, true, serverCfg)
	client = New(clientConn, false, clientCfg)
	server.Start()
	client.Start()
	return server, client, func() {
		server.Disconnect()
		client.Disconnect()
		server.WaitForShutdown()
		client.WaitForShutdown()
		n.Close()
	}
}

func TestPeerExchangesMessages(t *testing.T) {
	got := make(chan wire.Message, 1)
	server, client, cleanup := pair(t,
		Config{OnMessage: func(p *Peer, msg wire.Message, _ int) { got <- msg }},
		Config{})
	defer cleanup()

	if err := client.QueueMessage(wire.NewMsgPing(42)); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		ping, ok := msg.(*wire.MsgPing)
		if !ok || ping.Nonce != 42 {
			t.Errorf("received %#v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
	if server.MessagesReceived() != 1 {
		t.Errorf("MessagesReceived = %d", server.MessagesReceived())
	}
	if server.BytesReceived() == 0 || client.BytesSent() == 0 {
		t.Error("byte counters not updated")
	}
}

func TestPeerIdentity(t *testing.T) {
	server, client, cleanup := pair(t, Config{}, Config{})
	defer cleanup()
	if string(server.ID()) != "10.0.0.2:50001" {
		t.Errorf("server sees peer id %q", server.ID())
	}
	if string(client.ID()) != "10.0.0.1:8333" {
		t.Errorf("client sees peer id %q", client.ID())
	}
	if !server.Inbound() || client.Inbound() {
		t.Error("inbound flags wrong")
	}
	if server.Addr() != "10.0.0.2:50001" || server.LocalAddr() != "10.0.0.1:8333" {
		t.Error("addr accessors wrong")
	}
}

func TestChecksumMismatchDropsWithoutDisconnect(t *testing.T) {
	var checksumErrs sync.Map
	got := make(chan wire.Message, 1)
	n := simnet.NewNetwork()
	defer n.Close()
	l, err := n.Listen("10.0.0.1:8333")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	raw, err := n.Dial("10.0.0.2:50001", "10.0.0.1:8333")
	if err != nil {
		t.Fatal(err)
	}
	serverConn := <-accepted
	server := New(serverConn, true, Config{
		Net:       wire.SimNet,
		OnMessage: func(p *Peer, msg wire.Message, _ int) { got <- msg },
		OnChecksumError: func(p *Peer, err error) {
			checksumErrs.Store("seen", err)
		},
	})
	server.Start()
	defer func() {
		server.Disconnect()
		server.WaitForShutdown()
	}()

	// Bogus checksum frame, then a valid ping: the bogus one must be
	// dropped silently and the valid one still delivered.
	if _, err := wire.WriteRawMessageChecksum(raw, wire.CmdPing, make([]byte, 8), wire.SimNet, [4]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.WriteMessage(raw, wire.NewMsgPing(7), wire.ProtocolVersion, wire.SimNet); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-got:
		if ping, ok := msg.(*wire.MsgPing); !ok || ping.Nonce != 7 {
			t.Errorf("received %#v", msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid message after bogus one not delivered")
	}
	if _, ok := checksumErrs.Load("seen"); !ok {
		t.Error("OnChecksumError not invoked")
	}
	// Only the valid message counts.
	if server.MessagesReceived() != 1 {
		t.Errorf("MessagesReceived = %d, want 1", server.MessagesReceived())
	}
}

func TestHandshakeStateTracking(t *testing.T) {
	server, _, cleanup := pair(t, Config{}, Config{})
	defer cleanup()

	if server.VersionReceived() || server.VerAckReceived() || server.HandshakeComplete() {
		t.Error("fresh peer has handshake state")
	}
	v := &wire.MsgVersion{Nonce: 1}
	if !server.MarkVersionReceived(v) {
		t.Error("first MarkVersionReceived returned false")
	}
	if server.MarkVersionReceived(v) {
		t.Error("duplicate MarkVersionReceived returned true")
	}
	if server.RemoteVersion() == nil || server.RemoteVersion().Nonce != 1 {
		t.Error("remote version not stored")
	}
	server.MarkVerAckReceived()
	if !server.HandshakeComplete() {
		t.Error("handshake not complete after version+verack")
	}
	server.MarkVersionSent()
	if !server.VersionSent() {
		t.Error("MarkVersionSent not recorded")
	}
}

func TestQueueMessageAfterDisconnect(t *testing.T) {
	server, client, cleanup := pair(t, Config{}, Config{})
	defer cleanup()
	_ = server
	client.Disconnect()
	client.WaitForShutdown()
	if err := client.QueueMessage(wire.NewMsgPing(1)); !errors.Is(err, ErrPeerDisconnected) {
		t.Errorf("QueueMessage after disconnect = %v", err)
	}
}

func TestOnDisconnectFiresOnce(t *testing.T) {
	var calls sync.Map
	count := 0
	var mu sync.Mutex
	server, _, cleanup := pair(t, Config{
		OnDisconnect: func(p *Peer) {
			mu.Lock()
			count++
			mu.Unlock()
			calls.Store(p.ID(), true)
		},
	}, Config{})
	server.Disconnect()
	server.Disconnect()
	server.WaitForShutdown()
	cleanup()
	mu.Lock()
	defer mu.Unlock()
	if count != 1 {
		t.Errorf("OnDisconnect fired %d times", count)
	}
}

func TestRemoteCloseDisconnectsPeer(t *testing.T) {
	disconnected := make(chan struct{})
	server, client, cleanup := pair(t, Config{
		OnDisconnect: func(p *Peer) { close(disconnected) },
	}, Config{})
	defer cleanup()
	_ = server
	client.Disconnect()
	select {
	case <-disconnected:
	case <-time.After(2 * time.Second):
		t.Fatal("server did not notice remote close")
	}
}

func TestMalformedMessageDisconnects(t *testing.T) {
	// A VERSION payload is cut or rewritten from its user-agent length on:
	// version 4 + services 8 + timestamp 8 + two 26-byte addresses + nonce 8.
	const userAgentAt = 80
	valid := wire.GetBuf(0)
	defer valid.Release()
	if err := testVersion(1).BtcEncode(valid, wire.ProtocolVersion); err != nil {
		t.Fatal(err)
	}
	version := func(tail ...byte) []byte {
		return append(append([]byte(nil), valid.Bytes()[:userAgentAt]...), tail...)
	}
	for _, tc := range []struct {
		name string
		// handshake sends a well-formed VERSION first, so the malformed
		// one decodes into the connection's reused target.
		handshake bool
		command   string
		payload   []byte
	}{
		// Valid checksums throughout: framing succeeds, decode fails.
		{"truncated PING", false, wire.CmdPing, make([]byte, 4)},
		{"truncated VERSION", false, wire.CmdVersion, version(16, '/')},
		{"truncated duplicate VERSION", true, wire.CmdVersion, version(16, '/')},
		{"over-long user agent in a duplicate VERSION", true, wire.CmdVersion,
			append(version(0xfd, 0x01, 0x01), make([]byte, wire.MaxUserAgentLen+1+4+1)...)},
		{"non-canonical length in a duplicate VERSION", true, wire.CmdVersion, version(0xfd, 1, 0, '/', 0, 0, 0, 0, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := simnet.NewNetwork()
			defer n.Close()
			l, err := n.Listen("10.0.0.1:8333")
			if err != nil {
				t.Fatal(err)
			}
			accepted := make(chan net.Conn, 1)
			go func() {
				c, _ := l.Accept()
				accepted <- c
			}()
			raw, err := n.Dial("10.0.0.2:50001", "10.0.0.1:8333")
			if err != nil {
				t.Fatal(err)
			}
			serverConn := <-accepted
			malformed := make(chan error, 1)
			disconnected := make(chan struct{})
			server := New(serverConn, true, Config{
				Net:          wire.SimNet,
				OnMessage:    versionHandler(func(*wire.MsgVersion) {}),
				OnMalformed:  func(p *Peer, err error) { malformed <- err },
				OnDisconnect: func(p *Peer) { close(disconnected) },
			})
			server.Start()
			defer server.WaitForShutdown()

			if tc.handshake {
				if _, err := wire.WriteMessage(raw, testVersion(0), wire.ProtocolVersion, wire.SimNet); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := wire.WriteRawMessage(raw, tc.command, tc.payload, wire.SimNet); err != nil {
				t.Fatal(err)
			}
			select {
			case <-malformed:
			case <-time.After(2 * time.Second):
				t.Fatal("OnMalformed not invoked")
			}
			select {
			case <-disconnected:
			case <-time.After(2 * time.Second):
				t.Fatal("malformed message did not disconnect")
			}
			if tc.handshake && !server.VersionReceived() {
				t.Error("the well-formed VERSION was not dispatched first")
			}
		})
	}
}

func TestIdleTimeoutDisconnects(t *testing.T) {
	disconnected := make(chan struct{})
	server, _, cleanup := pair(t, Config{
		IdleTimeout:  50 * time.Millisecond,
		OnDisconnect: func(p *Peer) { close(disconnected) },
	}, Config{})
	defer cleanup()
	_ = server
	select {
	case <-disconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("idle peer not disconnected")
	}
}

func TestSendQueueBackpressure(t *testing.T) {
	// Without a reader draining the remote side... simnet writes never
	// block, so the queue drains; this exercises the full-queue error by
	// disconnecting the writer loop first.
	server, client, cleanup := pair(t, Config{}, Config{})
	defer cleanup()
	_ = server
	client.Disconnect()
	client.WaitForShutdown()
	err := client.QueueMessage(wire.NewMsgPing(1))
	if err == nil {
		t.Error("queue accepted message after shutdown")
	}
}

func TestPeerByteAndMessageCounters(t *testing.T) {
	got := make(chan wire.Message, 4)
	server, client, cleanup := pair(t,
		Config{OnMessage: func(p *Peer, msg wire.Message, _ int) { got <- msg }},
		Config{})
	defer cleanup()

	for i := 0; i < 3; i++ {
		if err := client.QueueMessage(wire.NewMsgPing(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		select {
		case <-got:
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered")
		}
	}
	if server.MessagesReceived() != 3 {
		t.Errorf("MessagesReceived = %d", server.MessagesReceived())
	}
	// A framed ping is 24 header + 8 payload bytes.
	if want := uint64(3 * (24 + 8)); server.BytesReceived() != want {
		t.Errorf("BytesReceived = %d, want %d", server.BytesReceived(), want)
	}
	if client.BytesSent() != server.BytesReceived() {
		t.Errorf("sent %d != received %d", client.BytesSent(), server.BytesReceived())
	}
}

func TestPeerConcurrentQueueing(t *testing.T) {
	var count sync.WaitGroup
	received := make(chan struct{}, 1024)
	server, client, cleanup := pair(t,
		Config{OnMessage: func(p *Peer, msg wire.Message, _ int) { received <- struct{}{} }},
		Config{})
	defer cleanup()
	_ = server

	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		count.Add(1)
		go func(w int) {
			defer count.Done()
			for i := 0; i < each; i++ {
				for {
					err := client.QueueMessage(wire.NewMsgPing(uint64(w*1000 + i)))
					if err == nil {
						break
					}
					if errors.Is(err, ErrPeerDisconnected) {
						t.Error("peer disconnected mid-test")
						return
					}
					time.Sleep(time.Millisecond) // queue full: retry
				}
			}
		}(w)
	}
	count.Wait()
	deadline := time.After(5 * time.Second)
	for i := 0; i < writers*each; i++ {
		select {
		case <-received:
		case <-deadline:
			t.Fatalf("only %d of %d messages arrived", i, writers*each)
		}
	}
}

// stalledConn is a net.Conn whose remote never reads: writes block until the
// write deadline expires (or the conn is closed). It models a peer that
// accepted the TCP connection and then stopped draining its receive buffer.
type stalledConn struct {
	mu       sync.Mutex
	deadline time.Time
	quit     chan struct{}
	once     sync.Once
}

type stallTimeoutErr struct{}

func (stallTimeoutErr) Error() string   { return "write deadline exceeded" }
func (stallTimeoutErr) Timeout() bool   { return true }
func (stallTimeoutErr) Temporary() bool { return true }

func newStalledConn() *stalledConn { return &stalledConn{quit: make(chan struct{})} }

func (c *stalledConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	d := c.deadline
	c.mu.Unlock()
	if d.IsZero() {
		<-c.quit
		return 0, net.ErrClosed
	}
	select {
	case <-time.After(time.Until(d)):
		return 0, stallTimeoutErr{}
	case <-c.quit:
		return 0, net.ErrClosed
	}
}

func (c *stalledConn) Read(p []byte) (int, error) {
	<-c.quit
	return 0, net.ErrClosed
}

func (c *stalledConn) Close() error {
	c.once.Do(func() { close(c.quit) })
	return nil
}

func (c *stalledConn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadline = t
	c.mu.Unlock()
	return nil
}

func (c *stalledConn) SetReadDeadline(time.Time) error { return nil }
func (c *stalledConn) SetDeadline(t time.Time) error   { return c.SetWriteDeadline(t) }
func (c *stalledConn) LocalAddr() net.Addr             { return simnet.Addr("10.0.0.1:8333") }
func (c *stalledConn) RemoteAddr() net.Addr            { return simnet.Addr("10.0.0.9:1") }

// TestWriteLoopTimesOutOnStalledReader is the regression test for the
// writeLoop hang: a remote that stops reading used to wedge the write
// goroutine (and with it the slot) forever. With a per-message write
// deadline the peer must report the timeout and disconnect.
func TestWriteLoopTimesOutOnStalledReader(t *testing.T) {
	timedOut := make(chan struct{}, 1)
	disconnected := make(chan struct{}, 1)
	p := New(newStalledConn(), false, Config{
		Net:            wire.SimNet,
		WriteTimeout:   50 * time.Millisecond,
		OnWriteTimeout: func(*Peer) { timedOut <- struct{}{} },
		OnDisconnect:   func(*Peer) { disconnected <- struct{}{} },
	})
	p.Start()
	if err := p.QueueMessage(wire.NewMsgPing(1)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-timedOut:
	case <-time.After(5 * time.Second):
		t.Fatal("write never timed out against a stalled reader")
	}
	select {
	case <-disconnected:
	case <-time.After(5 * time.Second):
		t.Fatal("peer did not disconnect after write timeout")
	}
	p.WaitForShutdown()
}

// TestWriteTimeoutDisabled checks that a negative WriteTimeout leaves the
// legacy unbounded-write behavior available for callers that want it.
func TestWriteTimeoutDisabled(t *testing.T) {
	p := New(newStalledConn(), false, Config{Net: wire.SimNet, WriteTimeout: -1})
	p.Start()
	if err := p.QueueMessage(wire.NewMsgPing(1)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // long enough for a spurious deadline to fire
	select {
	case <-p.quit:
		t.Fatal("peer disconnected despite disabled write timeout")
	default:
	}
	p.Disconnect()
	p.WaitForShutdown()
}
