package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"banscore/internal/core"
	"banscore/internal/simnet"
	"banscore/internal/wire"
)

// Outcomes of one identity, as its connection's readiness callback sees them.
const (
	idPending  int32 = iota
	idAnswered       // its trailing sentinel PING was answered and the connection is still open
	idClosed         // the victim closed the connection: the ban landed
)

// sybilWatch detects the end of every identity's attack in-band. The victim
// closes an identity's connection when its ban lands; the connection's
// simnet readiness callback, which runs on the victim's own goroutine, sees
// that the moment it happens — no polling, no goroutine per identity. Each
// flood also ends in a sentinel PING, which a victim that bans inline never
// reads and a victim that fails to ban answers: an identity answered and
// then left open is what a missing ban looks like, and lets the run give up
// without waiting out its deadline. (A batching victim may answer first and
// close a moment later, when the batch that holds the ban is flushed.)
type sybilWatch struct {
	state     []atomic.Int32
	start     []time.Time     // first flood byte of each identity
	latency   []time.Duration // start → connection closed
	open      atomic.Int64    // identities not yet closed
	unsettled atomic.Int64    // identities neither answered nor closed
	lastDone  atomic.Int64    // UnixNano of the latest outcome
	done      chan struct{}   // closed when open reaches zero
	each      chan int        // optional: each identity's index at its first outcome
}

func newSybilWatch(n int) *sybilWatch {
	w := &sybilWatch{
		state:   make([]atomic.Int32, n),
		start:   make([]time.Time, n),
		latency: make([]time.Duration, n),
		done:    make(chan struct{}),
	}
	w.open.Store(int64(n))
	w.unsettled.Store(int64(n))
	return w
}

// arm registers identity i's callback on conn.
func (w *sybilWatch) arm(i int, conn *simnet.Conn) {
	conn.SetReadable(func() { w.check(i, conn) })
}

func (w *sybilWatch) check(i int, conn *simnet.Conn) {
	st := w.state[i].Load()
	if st == idClosed {
		return
	}
	if _, closed := conn.ReadBuffered(); closed {
		prev := w.state[i].Swap(idClosed)
		if prev == idClosed {
			return
		}
		now := time.Now()
		w.latency[i] = now.Sub(w.start[i])
		w.lastDone.Store(now.UnixNano())
		if prev == idPending {
			w.settled(i)
		}
		if w.open.Add(-1) == 0 {
			close(w.done)
		}
		return
	}
	if st == idPending && sentinelAnswered(conn) && w.state[i].CompareAndSwap(idPending, idAnswered) {
		w.lastDone.Store(time.Now().UnixNano())
		w.settled(i)
	}
}

// settled records identity i's first outcome.
func (w *sybilWatch) settled(i int) {
	w.unsettled.Add(-1)
	if w.each != nil {
		w.each <- i
	}
}

// sentinelAnswered reports whether a PONG sits in conn's receive buffer,
// behind the victim's handshake replies.
func sentinelAnswered(conn *simnet.Conn) bool {
	var buf [512]byte
	b := buf[:conn.PeekBuffered(buf[:])]
	for len(b) >= wire.MessageHeaderSize {
		n := int(binary.LittleEndian.Uint32(b[16:20]))
		if frameCommand(b) == wire.CmdPong {
			return true
		}
		if len(b) < wire.MessageHeaderSize+n {
			return false
		}
		b = b[wire.MessageHeaderSize+n:]
	}
	return false
}

// wait blocks until every identity's connection was closed by the victim.
// It gives up at the deadline, or earlier once the victim is stuck: every
// identity has had its sentinel answered, and for half a second no
// connection has closed and progress — the victim's count of dispatched
// frames — has not moved. Closes alone do not show a working victim: the
// swarm engine applies bans once per pass over its ready connections, and a
// pass over a few thousand of them lasts longer than any reasonable pause.
func (w *sybilWatch) wait(deadline time.Time, progress func() uint64) (end time.Time, ok bool) {
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	quiet, lastOpen, lastProgress := 0, w.open.Load(), progress()
	for {
		select {
		case <-w.done:
			return time.Unix(0, w.lastDone.Load()), true
		case now := <-ticker.C:
			if now.After(deadline) {
				return now, false
			}
			open, moved := w.open.Load(), progress()
			if w.unsettled.Load() > 0 || open != lastOpen || moved != lastProgress {
				quiet, lastOpen, lastProgress = 0, open, moved
			} else if quiet++; quiet >= 25 {
				return now, false
			}
		}
	}
}

// dialVictim dials from an identity's address. A refused dial means the
// accept backlog is momentarily full; yield and retry.
func dialVictim(fabric *simnet.Network, from string, deadline time.Time) (*simnet.Conn, error) {
	for {
		conn, err := fabric.Dial(from, victimAddr)
		if err == nil {
			return conn, nil
		}
		if !errors.Is(err, simnet.ErrConnRefused) || time.Now().After(deadline) {
			return nil, fmt.Errorf("dial from %s: %w", from, err)
		}
		runtime.Gosched()
	}
}

// senders is how many goroutines generate load: at most the core count.
func senders() int { return runtime.GOMAXPROCS(0) }

// eachIdentity runs fn over the identities of in.order that keep returns
// true for, split over the sender goroutines, and returns the first error.
func eachIdentity(order []int, keep func(i int) bool, fn func(i int) error) error {
	var wg sync.WaitGroup
	workers := senders()
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(order); k += workers {
				i := order[k]
				if !keep(i) {
					continue
				}
				if err := fn(i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// churnEvery makes every 7th identity a churner: it drops its connection at
// half the flood and must re-earn the whole threshold on a new one, because
// the victim forgets a score on disconnect.
const churnEvery = 7

func churns(i int) bool { return i%churnEvery == 0 }

// checkBans applies the Sybil outcome to every identity: banned, each on a
// score of exactly 100, none answered instead of banned.
func checkBans(res *childResult, v *victim, w *sybilWatch, identity func(int) string, n int) {
	unbanned, answered := int64(0), int64(0)
	for i := 0; i < n; i++ {
		if !v.node.Tracker().IsBanned(core.PeerIDFromAddr(identity(i))) {
			unbanned++
		}
		if w.state[i].Load() == idAnswered {
			answered++
		}
	}
	res.fail(unbanned, "%d of %d identities were not banned (%d had their trailing PING answered)", unbanned, n, answered)
	bans, offScore := v.banCounts()
	res.fail(int64(offScore), "%d bans landed on a score other than exactly %d", offScore, core.DefaultBanThreshold)
	if unbanned == 0 && bans != n {
		res.failAll("tracker announced %d bans for %d identities", bans, n)
	}
}

// runSybilSwarm: every identity is connected at once to a bare victim pumped
// by the swarm event loop; set-up admits them, the window floods them.
func runSybilSwarm(o runOptions) (*childResult, error) {
	n := o.units
	in, err := newSybilInputs(o.seed, n)
	if err != nil {
		return nil, err
	}
	v, err := newVictim(victimOptions{kind: victimSwarm, mode: o.mode, identities: n})
	if err != nil {
		return nil, err
	}
	defer v.close()

	res := newResult(int64(n))
	watch := newSybilWatch(n)
	conns := make([]*simnet.Conn, n)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.SetReadable(nil)
				c.Close()
			}
		}
	}()
	all := func(int) bool { return true }

	// Set-up — admission: every identity dials and pre-buffers its
	// handshake; the engine has them all before the window opens.
	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	admitStart := time.Now()
	err = eachIdentity(in.order, all, func(i int) error {
		conn, err := dialVictim(v.fabric, swarmIdentity(i), o.deadline)
		if err != nil {
			return err
		}
		conns[i] = conn
		watch.arm(i, conn)
		_, err = conn.Write(in.handshake)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("admission: %w", err)
	}
	for v.engine.Admitted() < uint64(n) {
		if time.Now().After(o.deadline) {
			return nil, fmt.Errorf("admission stalled at %d of %d identities", v.engine.Admitted(), n)
		}
		time.Sleep(200 * time.Microsecond)
	}
	res.Layer["swarm.admit_peers_per_s"] = float64(n) / time.Since(admitStart).Seconds()
	res.Layer["swarm.peak_live_peers"] = float64(v.engine.Live())
	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.Layer["swarm.heap_bytes_per_peer"] = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)

	base := v.node.Stats().MessagesProcessed
	start, setup := beginWindow()
	t0 := time.Now()
	for i := range watch.start {
		watch.start[i] = t0
	}
	// Churners first: half a flood and a sentinel. While the others flood,
	// the victim works through it, so the steps below rarely wait.
	err = eachIdentity(in.order, churns, func(i int) error {
		_, err := conns[i].Write(in.half)
		return err
	})
	notChurners := func(i int) bool { return !churns(i) }
	if err == nil {
		err = eachIdentity(in.order, notChurners, func(i int) error {
			conns[i].Write(in.flood) // an error here is the ban closing the connection under the tail of the flood
			return nil
		})
	}
	// A churner leaves only once its sentinel is answered: the victim has
	// then scored the whole half flood, so the disconnect forgets all of it
	// and the second session must re-earn the full threshold. (Leaving
	// earlier lets a batched hit be applied after the forget, and the count
	// of frames a ban needs would vary from run to run.)
	if err == nil {
		err = eachIdentity(in.order, churns, func(i int) error {
			for !sentinelAnswered(conns[i]) {
				if time.Now().After(o.deadline) {
					return fmt.Errorf("churner %s: half flood never acknowledged", swarmIdentity(i))
				}
				runtime.Gosched()
			}
			conns[i].SetReadable(nil)
			return conns[i].Close()
		})
	}
	if err == nil {
		err = eachIdentity(in.order, churns, func(i int) error {
			id := core.PeerIDFromAddr(swarmIdentity(i))
			for {
				if _, connected := v.node.Peer(id); !connected {
					break
				}
				if time.Now().After(o.deadline) {
					return fmt.Errorf("victim never dropped churned identity %s", id)
				}
				runtime.Gosched()
			}
			conn, err := dialVictim(v.fabric, swarmIdentity(i), o.deadline)
			if err != nil {
				return err
			}
			conns[i] = conn
			watch.arm(i, conn)
			conn.Write(in.handshake)
			conn.Write(in.flood)
			return nil
		})
	}
	if err != nil {
		return nil, fmt.Errorf("flood: %w", err)
	}
	end, finished := watch.wait(o.deadline, func() uint64 { return v.node.Stats().MessagesProcessed })
	stop := readCounters()
	stop.wall = end
	processed := v.node.Stats().MessagesProcessed - base

	// Frames the attack needed, fixed by count: the threshold per ban, and
	// per churner the abandoned half, its sentinel and a second handshake.
	churners := int64((n + churnEvery - 1) / churnEvery)
	dups := int64(n)*core.DefaultBanThreshold + churners*(core.DefaultBanThreshold/2)
	win := window{
		setup: setup,
		d:     stop.since(start),
		msgs:  dups + 3*churners,
		bytes: dups*int64(len(in.dup)) + churners*int64(len(in.handshake)+len(in.ping)),
	}
	win.record(res)
	res.Metrics["bans_per_s"] = float64(n) / win.d.wall.Seconds()
	res.Layer["node.bans_per_s"] = res.Metrics["bans_per_s"]

	if !finished {
		res.fail(watch.open.Load(), "%d identities were still connected when the run gave up", watch.open.Load())
	}
	if processed < uint64(win.msgs) {
		res.failAll("victim dispatched %d frames, the bans need %d", processed, win.msgs)
	}
	checkBans(res, v, watch, swarmIdentity, n)
	return res, nil
}

// runSerialSybil: identities arrive one after another, nproc in flight, at
// a victim that scores inline and writes every hit to the WAL; afterwards
// the store is closed, reopened, and the bans restored into a fresh node.
func runSerialSybil(o runOptions) (*childResult, error) {
	n := o.units
	in, err := newSybilInputs(o.seed, n)
	if err != nil {
		return nil, err
	}
	v, err := newVictim(victimOptions{kind: victimDurable, mode: o.mode})
	if err != nil {
		return nil, err
	}
	defer v.close()

	res := newResult(int64(n))
	inflight := senders()
	watch := newSybilWatch(n)
	watch.each = make(chan int, inflight) // one slot per identity in flight: check never blocks
	conns := make([]*simnet.Conn, n)
	attack := append(append([]byte(nil), in.handshake...), in.flood...)

	launch := func(k int) error {
		i := in.order[k]
		conn, err := dialVictim(v.fabric, serialIdentity(i), o.deadline)
		if err != nil {
			return err
		}
		conns[i] = conn
		watch.arm(i, conn)
		watch.start[i] = time.Now()
		conn.Write(attack) // one write; an error is the ban closing under its tail
		return nil
	}

	start, setup := beginWindow()
	perIdentity := int64(2 + core.DefaultBanThreshold)
	identityBytes := int64(len(in.handshake)) + core.DefaultBanThreshold*int64(len(in.dup))
	next := 0
	for ; next < inflight && next < n; next++ {
		if err := launch(next); err != nil {
			return nil, err
		}
	}
	timer := time.NewTimer(time.Until(o.deadline))
	defer timer.Stop()
	finished, got := true, 0
collect:
	for ; got < n; got++ {
		select {
		case i := <-watch.each:
			conns[i].SetReadable(nil)
			conns[i].Close()
			if next < n {
				if err := launch(next); err != nil {
					return nil, err
				}
				next++
			}
		case <-timer.C:
			finished = false
			break collect
		}
	}
	stop := readCounters()
	if finished {
		stop.wall = time.Unix(0, watch.lastDone.Load())
	}
	for _, c := range conns {
		if c != nil {
			c.SetReadable(nil)
			c.Close()
		}
	}

	win := window{
		setup: setup,
		d:     stop.since(start),
		msgs:  int64(n) * perIdentity,
		bytes: int64(n) * identityBytes,
	}
	win.record(res)
	res.Metrics["bans_per_s"] = float64(n) / win.d.wall.Seconds()
	res.Metrics["ban_latency_us_p50"] = percentileMicros(watch.latency, 50)
	res.Layer["node.bans_per_s"] = res.Metrics["bans_per_s"]
	res.Layer["node.ban_latency_us_p50"] = res.Metrics["ban_latency_us_p50"]
	res.Layer["node.ban_latency_us_p99"] = percentileMicros(watch.latency, 99)

	if !finished {
		res.fail(int64(n-got), "%d identities had no outcome before the deadline", n-got)
	}
	checkBans(res, v, watch, serialIdentity, n)

	// Durability: nothing shed, and every ban survives a close and reopen.
	v.node.Stop()
	st, err := v.closeStore()
	if err != nil {
		res.failAll("close ban store: %v", err)
	}
	res.fail(int64(st.Dropped), "WAL shed %d records", st.Dropped)
	res.Layer["banstore.fsyncs"] = float64(st.Fsyncs)
	res.Layer["banstore.shed_records"] = float64(st.Dropped)
	res.Layer["banstore.wal_bytes_per_ban"] = float64(st.WalBytes) / float64(n)

	reopenStart := time.Now()
	again, err := newVictim(victimOptions{kind: victimDurable, storeDir: v.storeDir})
	if err != nil {
		res.failAll("reopen ban store: %v", err)
		return res, nil
	}
	defer again.close()
	recoverTime := time.Since(reopenStart)
	res.Layer["banstore.recover_ms"] = float64(recoverTime.Microseconds()) / 1e3
	res.Layer["banstore.recover_recs_per_s"] = float64(len(again.recovered.Records)) / recoverTime.Seconds()
	missing := int64(0)
	for i := 0; i < n; i++ {
		if !again.node.Tracker().IsBanned(core.PeerIDFromAddr(serialIdentity(i))) {
			missing++
		}
	}
	res.fail(missing, "%d bans missing after reopen", missing)
	return res, nil
}
