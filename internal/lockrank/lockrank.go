// Package lockrank gives every mutex class in core, reputation, banstore
// and observer a static rank, after the Go runtime's lockrank.go. A
// goroutine may acquire a lock only while every lock it already holds has a
// lower rank, so no two goroutines can wait on each other's locks in a
// cycle: an ABBA inversion between, say, a reputation peer shard and a
// netgroup is a rank violation whether or not the two goroutines ever
// contend. The BM-DoS flood creates exactly the contention that turns such
// an inversion into a deadlock.
//
// Mutex and RWMutex take their class as a type parameter, so the zero
// value is ready to use and struct literals and make([]shard, n) need no
// set-up. In a normal build they are sync.Mutex and sync.RWMutex, and a
// Lock is the plain call. In the checked build (-tags poolpoison, run by
// make test-poolpoison) each acquisition is checked against the locks its
// goroutine holds, and one that breaks the order panics naming both
// classes. Locks of one class are never held together: every shard loop in
// the tree locks one shard at a time.
package lockrank

// Rank orders the lock classes: a lock may be acquired only while every
// lock held has a lower rank.
type Rank uint

// The rank table, outermost first. The observer's classes never nest with
// the node's; their place relative to them is arbitrary.
const (
	rankObserverPoll Rank = iota + 1 // observer pollState.mu: held for a whole poll pass
	rankObserver                     // observer Observer.mu
	rankObserverErrs                 // observer Observer.errsMu
	rankEventStore                   // observer Store.mu: the pollers ingest under rankObserverPoll
	rankTrackerShard                 // core tracker shard: the ledger append and the WAL hook run under it
	rankLedger                       // core Ledger.mu
	rankBanListShard                 // core ban-list shard
	rankPeerShard                    // reputation peer shard: Credit records to the WAL under it
	rankGroupShard                   // reputation group shard: TrackedGroups and PruneBelow lock netgroups under it
	rankNetgroup                     // reputation netgroup: Penalize records to the WAL under it
	rankBanStore                     // banstore Store.mu: the innermost lock
)

var rankNames = [...]string{
	rankObserverPoll: "observer poll state",
	rankObserver:     "observer",
	rankObserverErrs: "observer errors",
	rankEventStore:   "observer event store",
	rankTrackerShard: "core tracker shard",
	rankLedger:       "core ledger",
	rankBanListShard: "core ban-list shard",
	rankPeerShard:    "reputation peer shard",
	rankGroupShard:   "reputation group shard",
	rankNetgroup:     "reputation netgroup",
	rankBanStore:     "banstore",
}

func (r Rank) String() string { return rankNames[r] }

// Class is a lock class: one of the marker types below.
type Class interface{ rank() Rank }

// The lock classes, one marker type per rank.
type (
	ObserverPoll struct{}
	Observer     struct{}
	ObserverErrs struct{}
	EventStore   struct{}
	TrackerShard struct{}
	Ledger       struct{}
	BanListShard struct{}
	PeerShard    struct{}
	GroupShard   struct{}
	Netgroup     struct{}
	BanStore     struct{}
)

func (ObserverPoll) rank() Rank { return rankObserverPoll }
func (Observer) rank() Rank     { return rankObserver }
func (ObserverErrs) rank() Rank { return rankObserverErrs }
func (EventStore) rank() Rank   { return rankEventStore }
func (TrackerShard) rank() Rank { return rankTrackerShard }
func (Ledger) rank() Rank       { return rankLedger }
func (BanListShard) rank() Rank { return rankBanListShard }
func (PeerShard) rank() Rank    { return rankPeerShard }
func (GroupShard) rank() Rank   { return rankGroupShard }
func (Netgroup) rank() Rank     { return rankNetgroup }
func (BanStore) rank() Rank     { return rankBanStore }
