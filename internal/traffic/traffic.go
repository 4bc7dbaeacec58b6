// Package traffic synthesizes Bitcoin Mainnet background traffic. The paper
// trained its detector on ~35 hours of live Mainnet messages; this
// reproduction cannot (and, like the paper's attack side, ethically should
// not) touch the real network, so it generates a statistically matched
// substitute: Poisson message arrivals at the paper's observed normal rate
// (τ_n = [252, 390] messages/minute) with the TX-dominant per-type mix of
// Fig. 10's normal case. The detection engine consumes only (command,
// timestamp) pairs, so this feed exercises the identical code path.
package traffic

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"banscore/internal/wire"
)

// Event is one observed message arrival.
type Event struct {
	Cmd string
	At  time.Time
}

// Profile maps message commands to their relative frequency. Values need
// not sum to 1; they are normalized on use.
type Profile map[string]float64

// DefaultProfile is the normal-case message mix modeled on Fig. 10: TX
// dominates, INV/GETDATA relay chatter follows, control messages trail.
func DefaultProfile() Profile {
	return Profile{
		wire.CmdTx:          0.46,
		wire.CmdInv:         0.24,
		wire.CmdGetData:     0.11,
		wire.CmdHeaders:     0.045,
		wire.CmdGetHeaders:  0.02,
		wire.CmdAddr:        0.025,
		wire.CmdPing:        0.021,
		wire.CmdPong:        0.021,
		wire.CmdCmpctBlock:  0.012,
		wire.CmdBlock:       0.006,
		wire.CmdNotFound:    0.008,
		wire.CmdFeeFilter:   0.007,
		wire.CmdSendCmpct:   0.005,
		wire.CmdSendHeaders: 0.004,
		wire.CmdGetAddr:     0.003,
		wire.CmdVersion:     0.004,
		wire.CmdVerAck:      0.004,
		wire.CmdGetBlockTxn: 0.003,
		wire.CmdBlockTxn:    0.002,
	}
}

// DefaultRatePerMinute sits in the middle of the paper's observed normal
// band τ_n = [252, 390].
const DefaultRatePerMinute = 320.0

// Generator produces deterministic synthetic traffic: DefaultProfile's mix
// at DefaultRatePerMinute.
type Generator struct {
	rng *rand.Rand

	// cumulative distribution over commands.
	cmds []string
	cdf  []float64
}

// NewGenerator returns a deterministic generator for the given seed.
func NewGenerator(seed int64) *Generator {
	profile := DefaultProfile()
	g := &Generator{rng: rand.New(rand.NewSource(seed))}
	for cmd := range profile {
		g.cmds = append(g.cmds, cmd)
	}
	sort.Strings(g.cmds)
	total := 0.0
	for _, cmd := range g.cmds {
		total += profile[cmd]
	}
	g.cdf = make([]float64, len(g.cmds))
	acc := 0.0
	for i, cmd := range g.cmds {
		acc += profile[cmd] / total
		g.cdf[i] = acc
	}
	return g
}

// sampleCmd draws a command from the profile.
func (g *Generator) sampleCmd() string {
	u := g.rng.Float64()
	idx := sort.SearchFloat64s(g.cdf, u)
	if idx >= len(g.cmds) {
		idx = len(g.cmds) - 1
	}
	return g.cmds[idx]
}

// Events generates a Poisson arrival stream covering [start, start+d).
func (g *Generator) Events(start time.Time, d time.Duration) []Event {
	perSecond := DefaultRatePerMinute / 60.0
	var events []Event
	at := start
	end := start.Add(d)
	for {
		// Exponential inter-arrival time.
		gap := -math.Log(1-g.rng.Float64()) / perSecond
		at = at.Add(time.Duration(gap * float64(time.Second)))
		if !at.Before(end) {
			return events
		}
		events = append(events, Event{Cmd: g.sampleCmd(), At: at})
	}
}

// Overlay merges two event streams in time order. Experiments use it to mix
// attack traffic into the normal feed, like the paper's abnormal dataset
// ("the generated anomaly traffic is mixed with the normal real-world data").
func Overlay(a, b []Event) []Event {
	out := make([]Event, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// FloodEvents synthesizes a constant-rate attack stream of one command —
// the shape of a BM-DoS flood as seen by the monitor.
func FloodEvents(cmd string, start time.Time, d time.Duration, perMinute float64) []Event {
	if perMinute <= 0 {
		return nil
	}
	gap := time.Duration(float64(time.Minute) / perMinute)
	var events []Event
	for at := start; at.Before(start.Add(d)); at = at.Add(gap) {
		events = append(events, Event{Cmd: cmd, At: at})
	}
	return events
}

// DefamationEvents synthesizes the monitor-visible signature of an ongoing
// Defamation attack: repeated VERSION/VERACK handshake exchanges as the
// victim rebuilds outbound connections, at the given reconnects per minute.
// It returns the message events and the reconnect timestamps.
func DefamationEvents(start time.Time, d time.Duration, reconnectsPerMinute float64) ([]Event, []time.Time) {
	if reconnectsPerMinute <= 0 {
		return nil, nil
	}
	gap := time.Duration(float64(time.Minute) / reconnectsPerMinute)
	var events []Event
	var reconnects []time.Time
	for at := start; at.Before(start.Add(d)); at = at.Add(gap) {
		// One reconnection implies a fresh VERSION/VERACK exchange in
		// each direction observed by the monitor.
		events = append(events,
			Event{Cmd: wire.CmdVersion, At: at},
			Event{Cmd: wire.CmdVerAck, At: at.Add(time.Millisecond)},
		)
		reconnects = append(reconnects, at)
	}
	return events, reconnects
}
