package observer

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"banscore/internal/lockrank"
	"banscore/internal/telemetry"
	"banscore/internal/vclock"
)

// Observer polls a fleet of nodes' telemetry surfaces and feeds the store.
// One goroutine per node target, each running the same poll pass:
//
//  1. /debug/journal?since=<cursor> — the incremental feed. Events are
//     rebased into the store's sequence space (Cursor.Base), ingested, and
//     only then is the advanced cursor acknowledged — the append order that
//     makes the ack crash-safe. A journal total below the request's cursor
//     means the node restarted: a node_restart event is recorded and a new
//     generation base is committed before any of the new generation's
//     events, so the dedup mapping survives observer crashes too.
//  2. /healthz — status transitions become StreamHealth events.
//  3. /debug/banstore — durability health flips become StreamBanstore
//     events (nodes without a ban store simply 404).
//  4. /debug/reputation — netgroup verdict transitions become
//     StreamNetgroup events.
//  5. /debug/bans/<peer> — forensic enrichment for each ban the journal
//     just delivered, stored on StreamEvidence under the ban's sequence.
//  6. /metrics?format=json — the node_info identity gauge, recorded once
//     per distinct identity on StreamNode.
//
// Transition trackers are seeded from the store at startup, so an observer
// restart re-emits nothing that didn't actually change.
type Observer struct {
	store    *Store
	targets  []NodeTarget
	interval time.Duration
	clock    vclock.Clock
	client   *http.Client

	mu      lockrank.Mutex[lockrank.Observer]
	quit    chan struct{}
	wg      sync.WaitGroup // poll loops; Stop joins it
	started bool

	polls  map[string]*pollState
	errsMu lockrank.Mutex[lockrank.ObserverErrs]
	errs   map[string]string // node -> last poll error ("" when healthy)
}

// NodeTarget is one node to follow.
type NodeTarget struct {
	// ID is the node's fleet identifier (its -node-id).
	ID string `json:"id"`

	// BaseURL is the node's telemetry endpoint, e.g. "http://127.0.0.1:19001".
	BaseURL string `json:"base_url"`
}

// Config parameterizes New.
type Config struct {
	// Store receives everything the pollers bring home. Required.
	Store *Store

	// Targets are the nodes to follow.
	Targets []NodeTarget

	// Interval is the poll period. Default 250ms.
	Interval time.Duration

	// Clock supplies time for synthesized event stamps and poll pacing.
	// Default vclock.System().
	Clock vclock.Clock

	// Client performs the HTTP polls. Default: a client with a 5s timeout.
	Client *http.Client
}

// pollState is one target's in-memory tracking between polls. mu serializes
// whole poll passes, so a direct PollNode/PollAll caller (the fleet replay's
// waitForBans, tests) is safe alongside the background poll loop that Start
// runs for the same node.
type pollState struct {
	mu        lockrank.Mutex[lockrank.ObserverPoll]
	target    NodeTarget
	cursor    Cursor
	health    string            // last /healthz status ("" unknown)
	banstore  string            // last /debug/banstore verdict ("" unknown)
	netgroups map[string]string // group -> last verdict
	nodeInfo  string            // last node_info identity recorded
}

// New builds an observer over cfg.Store. Call Start to begin polling, or
// PollNode/PollAll directly (tests, the fleet experiment's replay). Direct
// polls are safe concurrently with the background loops: each node's poll
// pass holds that node's pollState lock for its duration.
func New(cfg Config) *Observer {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.System()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	o := &Observer{
		store:    cfg.Store,
		targets:  cfg.Targets,
		interval: cfg.Interval,
		clock:    cfg.Clock,
		client:   cfg.Client,
		polls:    make(map[string]*pollState),
		errs:     make(map[string]string),
	}
	for _, t := range cfg.Targets {
		o.polls[t.ID] = o.seedState(t)
	}
	return o
}

// seedState rebuilds a target's transition trackers from the store, so a
// restarted observer continues instead of re-emitting.
func (o *Observer) seedState(t NodeTarget) *pollState {
	st := &pollState{target: t, netgroups: make(map[string]string)}
	if cur, ok := o.store.Cursor(t.ID); ok {
		st.cursor = cur
	}
	for _, ev := range o.store.LatestByStream(t.ID, StreamHealth) {
		st.health = ev.Detail
	}
	for _, ev := range o.store.LatestByStream(t.ID, StreamBanstore) {
		st.banstore = ev.Detail
	}
	for group, ev := range o.store.LatestByStream(t.ID, StreamNetgroup) {
		st.netgroups[group] = ev.Detail
	}
	for _, ev := range o.store.LatestByStream(t.ID, StreamNode) {
		if ev.Kind == KindNodeInfo {
			st.nodeInfo = ev.Detail
		}
	}
	return st
}

// spawn runs fn on a goroutine registered with wg — the one audited launch
// site the gospawn analyzer pins this package to.
func spawn(wg *sync.WaitGroup, fn func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		fn()
	}()
}

// Start launches one poll loop per target. Stop shuts them down.
func (o *Observer) Start() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.started {
		return
	}
	o.started = true
	o.quit = make(chan struct{})
	quit := o.quit
	for _, t := range o.targets {
		st := o.polls[t.ID]
		spawn(&o.wg, func() { o.pollLoop(st, quit) })
	}
}

// Stop halts the poll loops and waits for them to exit. The store is left
// open; Close it separately.
func (o *Observer) Stop() {
	o.mu.Lock()
	if !o.started {
		o.mu.Unlock()
		return
	}
	o.started = false
	quit := o.quit
	o.mu.Unlock()
	close(quit)
	o.wg.Wait()
}

// pollLoop runs one target's poll pass every interval until Stop.
func (o *Observer) pollLoop(st *pollState, quit chan struct{}) {
	for {
		o.recordErr(st.target.ID, o.PollNode(st.target.ID))
		fired := make(chan struct{})
		timer := o.clock.AfterFunc(o.interval, func() { close(fired) })
		select {
		case <-quit:
			timer.Stop()
			return
		case <-fired:
		}
	}
}

func (o *Observer) recordErr(node string, err error) {
	o.errsMu.Lock()
	if err != nil {
		o.errs[node] = err.Error()
	} else {
		o.errs[node] = ""
	}
	o.errsMu.Unlock()
}

// Errs returns each node's last poll error ("" means the last pass
// succeeded).
func (o *Observer) Errs() map[string]string {
	o.errsMu.Lock()
	defer o.errsMu.Unlock()
	out := make(map[string]string, len(o.errs))
	for k, v := range o.errs {
		out[k] = v
	}
	return out
}

// PollAll runs one poll pass against every target, returning the first
// error (all targets are still polled).
func (o *Observer) PollAll() error {
	var first error
	for _, t := range o.targets {
		err := o.PollNode(t.ID)
		o.recordErr(t.ID, err)
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PollNode runs one full poll pass against one target. Passes for the same
// node are mutually exclusive — concurrent callers (a background poll loop
// plus a direct caller) serialize rather than tearing the cursor.
func (o *Observer) PollNode(nodeID string) error {
	o.mu.Lock()
	st := o.polls[nodeID]
	o.mu.Unlock()
	if st == nil {
		return fmt.Errorf("observer: unknown node %q", nodeID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := o.pollJournal(st); err != nil {
		return err
	}
	o.pollHealth(st)
	o.pollBanstore(st)
	o.pollReputation(st)
	o.pollNodeInfo(st)
	return nil
}

// getJSON fetches base+path and decodes the body into v. Non-2xx statuses
// are returned as errNotFound/plain errors after the body is drained; 503
// is NOT an error for /healthz-style endpoints, so callers that care pass
// accept503.
func (o *Observer) getJSON(base, path string, v any, accept ...int) error {
	resp, err := o.client.Get(strings.TrimRight(base, "/") + path)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	ok := resp.StatusCode >= 200 && resp.StatusCode < 300
	for _, code := range accept {
		if resp.StatusCode == code {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("observer: GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// pollJournal consumes the incremental journal feed and acknowledges it.
func (o *Observer) pollJournal(st *pollState) error {
	var resp telemetry.JournalResponse
	path := fmt.Sprintf("/debug/journal?since=%d", st.cursor.Next)
	if err := o.getJSON(st.target.BaseURL, path, &resp); err != nil {
		return err
	}

	if resp.Total < st.cursor.Next {
		// The node restarted: its journal total is monotonic within a
		// process lifetime, so a total below our cursor means the sequence
		// space began again. (A restarted node that already out-produced
		// the old cursor is indistinguishable from a live one — detection
		// is best-effort, bounded by one poll interval of new events.)
		// Commit a new generation base past everything stored BEFORE
		// ingesting any of the new generation, so the base is at least as
		// durable as the events mapped through it.
		newBase := o.store.LastSeq(st.target.ID, StreamJournal)
		o.store.Ingest(Event{
			Node:   st.target.ID,
			Stream: StreamNode,
			At:     o.clock.Now(),
			Kind:   KindNodeRestart,
			Detail: fmt.Sprintf("journal total went backwards: had cursor %d, node reports total %d", st.cursor.Next, resp.Total),
		})
		st.cursor = Cursor{Next: 0, Dropped: st.cursor.Dropped, Base: newBase}
		return o.store.AckCursor(st.target.ID, st.cursor)
	}

	if resp.Dropped > 0 && len(resp.Events) > 0 {
		// The ring overwrote events between our cursor and the oldest
		// retained entry. The gap event borrows the last dropped sequence
		// number — a slot no real event can ever fill.
		o.store.Ingest(Event{
			Node:   st.target.ID,
			Stream: StreamJournal,
			Seq:    st.cursor.Base + resp.Events[0].Seq - 1,
			At:     o.clock.Now(),
			Kind:   KindJournalGap,
			Value:  float64(resp.Dropped),
			Detail: fmt.Sprintf("ring overwrote %d events before cursor %d", resp.Dropped, resp.Events[0].Seq),
		})
	}

	var newBans []telemetry.Event
	for _, ev := range resp.Events {
		ingested := o.store.Ingest(Event{
			Node:   st.target.ID,
			Stream: StreamJournal,
			Seq:    st.cursor.Base + ev.Seq,
			At:     ev.At,
			Kind:   string(ev.Type),
			Peer:   ev.Peer,
			Rule:   ev.Rule,
			Value:  ev.Value,
			Detail: ev.Detail,
		})
		if ingested && ev.Type == telemetry.EventBan {
			newBans = append(newBans, ev)
		}
	}

	// Evidence enrichment for the bans this pass delivered, before the ack
	// so a crash retries it.
	for _, ban := range newBans {
		o.fetchEvidence(st, ban)
	}

	if resp.NextCursor > st.cursor.Next || resp.Dropped > 0 {
		st.cursor.Next = resp.NextCursor
		st.cursor.Dropped += resp.Dropped
		return o.store.AckCursor(st.target.ID, st.cursor)
	}
	return nil
}

// fetchEvidence pulls the forensic chain behind one ban and stores its
// summary under the ban's sequence on StreamEvidence.
func (o *Observer) fetchEvidence(st *pollState, ban telemetry.Event) {
	key := Key{Node: st.target.ID, Stream: StreamEvidence, Seq: st.cursor.Base + ban.Seq}
	if o.store.HasEvent(key) {
		return
	}
	var doc struct {
		Peer    string `json:"peer"`
		Records []struct {
			Rule  string `json:"rule"`
			Delta int    `json:"delta"`
			Score int    `json:"score"`
		} `json:"records"`
	}
	if err := o.getJSON(st.target.BaseURL, "/debug/bans/"+url.PathEscape(ban.Peer), &doc); err != nil {
		return // forensics not mounted or chain evicted; the ban stands on its own
	}
	if len(doc.Records) == 0 {
		return
	}
	o.store.Ingest(Event{
		Node:   st.target.ID,
		Stream: StreamEvidence,
		Seq:    key.Seq,
		At:     o.clock.Now(),
		Kind:   KindBanEvidence,
		Peer:   ban.Peer,
		Value:  float64(doc.Records[len(doc.Records)-1].Score),
		Detail: summarizeChain(doc.Records),
	})
}

// summarizeChain folds a forensic record chain into "rule xN (+delta)"
// pieces plus the final score.
func summarizeChain(records []struct {
	Rule  string `json:"rule"`
	Delta int    `json:"delta"`
	Score int    `json:"score"`
}) string {
	type agg struct {
		hits  int
		delta int
	}
	byRule := make(map[string]*agg)
	order := make([]string, 0, 4)
	for _, r := range records {
		a := byRule[r.Rule]
		if a == nil {
			a = &agg{}
			byRule[r.Rule] = a
			order = append(order, r.Rule)
		}
		a.hits++
		a.delta += r.Delta
	}
	parts := make([]string, 0, len(order))
	for _, rule := range order {
		a := byRule[rule]
		parts = append(parts, fmt.Sprintf("%s x%d (+%d)", rule, a.hits, a.delta))
	}
	return fmt.Sprintf("%s -> score %d", strings.Join(parts, ", "), records[len(records)-1].Score)
}

// pollHealth records /healthz status transitions.
func (o *Observer) pollHealth(st *pollState) {
	var doc struct {
		Status   string   `json:"status"`
		Degraded []string `json:"degraded"`
	}
	if err := o.getJSON(st.target.BaseURL, "/healthz", &doc, http.StatusServiceUnavailable); err != nil {
		return
	}
	status := doc.Status
	if len(doc.Degraded) > 0 {
		status = doc.Status + ": " + strings.Join(doc.Degraded, ",")
	}
	if status == st.health || (st.health == "" && doc.Status == "ok") {
		st.health = status
		return
	}
	st.health = status
	o.store.Ingest(Event{
		Node:   st.target.ID,
		Stream: StreamHealth,
		At:     o.clock.Now(),
		Kind:   KindHealth,
		Detail: status,
	})
}

// pollBanstore records the persistence layer's health flips.
func (o *Observer) pollBanstore(st *pollState) {
	var doc struct {
		Healthy bool   `json:"healthy"`
		LSN     uint64 `json:"lsn"`
	}
	if err := o.getJSON(st.target.BaseURL, "/debug/banstore", &doc); err != nil {
		return // no ban store on this node
	}
	verdict := "degraded"
	if doc.Healthy {
		verdict = "healthy"
	}
	if verdict == st.banstore || (st.banstore == "" && doc.Healthy) {
		st.banstore = verdict
		return
	}
	st.banstore = verdict
	o.store.Ingest(Event{
		Node:   st.target.ID,
		Stream: StreamBanstore,
		At:     o.clock.Now(),
		Kind:   KindBanstoreHealth,
		Value:  float64(doc.LSN),
		Detail: verdict,
	})
}

// pollReputation records netgroup verdict transitions.
func (o *Observer) pollReputation(st *pollState) {
	var doc struct {
		Groups []struct {
			Group    string  `json:"group"`
			Pressure float64 `json:"pressure"`
			Status   string  `json:"status"`
		} `json:"groups"`
	}
	if err := o.getJSON(st.target.BaseURL, "/debug/reputation", &doc); err != nil {
		return // no reputation engine on this node
	}
	for _, g := range doc.Groups {
		prev := st.netgroups[g.Group]
		if g.Status == prev || (prev == "" && g.Status == "ok") {
			st.netgroups[g.Group] = g.Status
			continue
		}
		st.netgroups[g.Group] = g.Status
		o.store.Ingest(Event{
			Node:   st.target.ID,
			Stream: StreamNetgroup,
			At:     o.clock.Now(),
			Kind:   KindNetgroupVerdict,
			Peer:   g.Group,
			Value:  g.Pressure,
			Detail: g.Status,
		})
	}
}

// pollNodeInfo records the node_info identity gauge once per distinct
// identity.
func (o *Observer) pollNodeInfo(st *pollState) {
	var doc struct {
		Metrics []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels,omitempty"`
		} `json:"metrics"`
	}
	if err := o.getJSON(st.target.BaseURL, "/metrics?format=json", &doc); err != nil {
		return
	}
	for _, m := range doc.Metrics {
		if m.Name != "node_info" {
			continue
		}
		keys := make([]string, 0, len(m.Labels))
		for k := range m.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+m.Labels[k])
		}
		info := strings.Join(parts, " ")
		if info == st.nodeInfo {
			return
		}
		st.nodeInfo = info
		o.store.Ingest(Event{
			Node:   st.target.ID,
			Stream: StreamNode,
			At:     o.clock.Now(),
			Kind:   KindNodeInfo,
			Detail: info,
		})
		return
	}
}
