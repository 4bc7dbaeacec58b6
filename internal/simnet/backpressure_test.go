package simnet

import (
	"io"
	"net"
	"testing"
	"time"
)

// pipePair returns a connected client/server conn pair.
func pipePair(t testing.TB) (client, server net.Conn, cleanup func()) {
	t.Helper()
	n := NewNetwork()
	l, err := n.Listen("10.0.0.1:8333")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := n.Dial("10.0.0.2:1", "10.0.0.1:8333")
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	return c, s, n.Close
}

func TestWriterBlocksAtBufferCap(t *testing.T) {
	client, server, cleanup := pipePair(t)
	defer cleanup()

	// Fill the buffer past the cap; the next write must block.
	chunk := make([]byte, pipeBufferCap)
	if _, err := client.Write(chunk); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	released := make(chan error, 1)
	go func() {
		close(blocked)
		_, err := client.Write([]byte("x"))
		released <- err
	}()
	<-blocked
	select {
	case err := <-released:
		t.Fatalf("write did not block at capacity (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// Draining the reader releases the writer.
	buf := make([]byte, 64*1024)
	for drained := 0; drained < pipeBufferCap; {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		drained += n
	}
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("released write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writer not released by reader drain")
	}
}

func TestBlockedWriterReleasedByClose(t *testing.T) {
	client, server, cleanup := pipePair(t)
	defer cleanup()
	_ = server

	if _, err := client.Write(make([]byte, pipeBufferCap)); err != nil {
		t.Fatal(err)
	}
	released := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("x"))
		released <- err
	}()
	time.Sleep(20 * time.Millisecond)
	client.Close()
	select {
	case err := <-released:
		if err == nil {
			t.Fatal("blocked write succeeded after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked writer not released by close")
	}
}

func TestBlockedWriterReleasedByPeerClose(t *testing.T) {
	client, server, cleanup := pipePair(t)
	defer cleanup()

	if _, err := client.Write(make([]byte, pipeBufferCap)); err != nil {
		t.Fatal(err)
	}
	released := make(chan error, 1)
	go func() {
		_, err := client.Write([]byte("x"))
		released <- err
	}()
	time.Sleep(20 * time.Millisecond)
	server.Close()
	select {
	case err := <-released:
		if err == nil {
			t.Fatal("blocked write succeeded after peer close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked writer not released by peer close")
	}
}

func TestOversizeSingleWriteAccepted(t *testing.T) {
	// One write larger than the cap is accepted whole (bounded
	// overshoot): a 4 MiB+ block message must still transit.
	client, server, cleanup := pipePair(t)
	defer cleanup()

	big := make([]byte, pipeBufferCap+1024)
	for i := range big {
		big[i] = byte(i)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Write(big)
		done <- err
	}()
	got := make([]byte, len(big))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != big[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func TestThroughputUnderSustainedFlood(t *testing.T) {
	// A fast writer against a slow-but-steady reader must make progress
	// without unbounded memory (implicitly: the cap bounds the buffer).
	client, server, cleanup := pipePair(t)
	defer cleanup()

	const total = 64 * 1024 * 1024 // 64 MiB through a 4 MiB buffer
	writeDone := make(chan error, 1)
	go func() {
		chunk := make([]byte, 128*1024)
		written := 0
		for written < total {
			n, err := client.Write(chunk)
			if err != nil {
				writeDone <- err
				return
			}
			written += n
		}
		writeDone <- nil
	}()
	buf := make([]byte, 256*1024)
	read := 0
	for read < total {
		n, err := server.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		read += n
	}
	if err := <-writeDone; err != nil {
		t.Fatal(err)
	}
}
