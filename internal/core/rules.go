// Package core implements the paper's central subject: Bitcoin Core's
// ban-score mechanism (misbehavior tracking). It provides the versioned
// Table I rule sets (Bitcoin Core 0.20.0 / 0.21.0 / 0.22.0), the per-peer
// score Tracker with the 100-point threshold and 24-hour ban of [IP:Port]
// connection identifiers, the ban filter, and the countermeasure modes the
// paper evaluates: threshold-to-infinity, fully disabled, and the
// good-score mechanism.
package core

import "fmt"

// CoreVersion selects which Bitcoin Core release's rule set applies.
type CoreVersion int

// Studied Bitcoin Core versions.
const (
	V0_20_0 CoreVersion = iota + 1
	V0_21_0
	V0_22_0
)

// String returns the release string.
func (v CoreVersion) String() string {
	switch v {
	case V0_20_0:
		return "0.20.0"
	case V0_21_0:
		return "0.21.0"
	case V0_22_0:
		return "0.22.0"
	}
	return fmt.Sprintf("Unknown CoreVersion (%d)", int(v))
}

// MisbehaviorType classifies a rule per Table I's final column.
type MisbehaviorType int

// Misbehavior types.
const (
	MisbehaviorInvalid MisbehaviorType = iota + 1
	MisbehaviorOversize
	MisbehaviorDisorder
	MisbehaviorRepeat
)

// String returns the type name used in Table I.
func (t MisbehaviorType) String() string {
	switch t {
	case MisbehaviorInvalid:
		return "Invalid"
	case MisbehaviorOversize:
		return "Oversize"
	case MisbehaviorDisorder:
		return "Disorder"
	case MisbehaviorRepeat:
		return "Repeat"
	}
	return fmt.Sprintf("Unknown MisbehaviorType (%d)", int(t))
}

// BanObject restricts which peer role a rule applies to (Table I's "Object
// of Ban" column).
type BanObject int

// Ban objects.
const (
	AnyPeer BanObject = iota + 1
	InboundPeer
	OutboundPeer
)

// String returns the object name used in Table I.
func (o BanObject) String() string {
	switch o {
	case AnyPeer:
		return "Any peer"
	case InboundPeer:
		return "Inbound peer"
	case OutboundPeer:
		return "Outbound peer"
	}
	return fmt.Sprintf("Unknown BanObject (%d)", int(o))
}

// RuleID identifies one Table I ban-score rule.
type RuleID int

// The Table I rules.
const (
	// BLOCK rules.
	BlockMutated RuleID = iota + 1
	BlockCachedInvalid
	BlockPrevInvalid
	BlockPrevMissing

	// TX rule.
	TxInvalidSegWit

	// GETBLOCKTXN rule.
	GetBlockTxnOutOfBounds

	// HEADERS rules.
	HeadersNonConnecting
	HeadersNonContinuous
	HeadersOversize

	// ADDR rule.
	AddrOversize

	// INV / GETDATA rules.
	InvOversize
	GetDataOversize

	// CMPCTBLOCK rule.
	CmpctBlockInvalid

	// FILTERLOAD / FILTERADD rules.
	FilterLoadOversize
	FilterAddNoBloomVersion
	FilterAddOversize

	// VERSION / VERACK handshake rules (deprecated across releases).
	VersionDuplicate
	MessageBeforeVersion
	MessageBeforeVerack
)

// String returns the rule name.
func (id RuleID) String() string {
	if r, ok := ruleCatalog[id]; ok {
		return r.Name
	}
	return fmt.Sprintf("Unknown RuleID (%d)", int(id))
}

// Rule is one row of Table I.
type Rule struct {
	ID          RuleID
	Name        string
	MessageType string
	Misbehavior string
	// Score per version; a missing version means the rule is deprecated
	// there (rendered "-" in Table I).
	Scores map[CoreVersion]int
	Object BanObject
	Type   MisbehaviorType
}

// ScoreIn returns the rule's score in the given version and whether the
// rule exists there.
func (r Rule) ScoreIn(v CoreVersion) (int, bool) {
	s, ok := r.Scores[v]
	return s, ok
}

// allScores is shorthand for a rule present at the same score in all three
// studied versions.
func allScores(s int) map[CoreVersion]int {
	return map[CoreVersion]int{V0_20_0: s, V0_21_0: s, V0_22_0: s}
}

// ruleCatalog is Table I verbatim.
var ruleCatalog = map[RuleID]Rule{
	BlockMutated: {
		ID: BlockMutated, Name: "BlockMutated", MessageType: "BLOCK",
		Misbehavior: "Block data was mutated",
		Scores:      allScores(100), Object: AnyPeer, Type: MisbehaviorInvalid,
	},
	BlockCachedInvalid: {
		ID: BlockCachedInvalid, Name: "BlockCachedInvalid", MessageType: "BLOCK",
		Misbehavior: "Block was cached as invalid",
		Scores:      allScores(100), Object: OutboundPeer, Type: MisbehaviorInvalid,
	},
	BlockPrevInvalid: {
		ID: BlockPrevInvalid, Name: "BlockPrevInvalid", MessageType: "BLOCK",
		Misbehavior: "Previous block is invalid",
		Scores:      allScores(100), Object: AnyPeer, Type: MisbehaviorInvalid,
	},
	BlockPrevMissing: {
		ID: BlockPrevMissing, Name: "BlockPrevMissing", MessageType: "BLOCK",
		Misbehavior: "Previous block is missing",
		Scores:      allScores(10), Object: AnyPeer, Type: MisbehaviorInvalid,
	},
	TxInvalidSegWit: {
		ID: TxInvalidSegWit, Name: "TxInvalidSegWit", MessageType: "TX",
		Misbehavior: "Invalid by consensus rules of SegWit",
		Scores:      allScores(100), Object: AnyPeer, Type: MisbehaviorInvalid,
	},
	GetBlockTxnOutOfBounds: {
		ID: GetBlockTxnOutOfBounds, Name: "GetBlockTxnOutOfBounds", MessageType: "GETBLOCKTXN",
		Misbehavior: "Out-of-bounds transaction indices",
		Scores:      allScores(100), Object: AnyPeer, Type: MisbehaviorOversize,
	},
	HeadersNonConnecting: {
		ID: HeadersNonConnecting, Name: "HeadersNonConnecting", MessageType: "HEADERS",
		Misbehavior: "10 non-connecting headers",
		Scores:      allScores(20), Object: AnyPeer, Type: MisbehaviorDisorder,
	},
	HeadersNonContinuous: {
		ID: HeadersNonContinuous, Name: "HeadersNonContinuous", MessageType: "HEADERS",
		Misbehavior: "Non-continuous headers sequence",
		Scores:      allScores(20), Object: AnyPeer, Type: MisbehaviorDisorder,
	},
	HeadersOversize: {
		ID: HeadersOversize, Name: "HeadersOversize", MessageType: "HEADERS",
		Misbehavior: "More than 2000 headers",
		Scores:      allScores(20), Object: AnyPeer, Type: MisbehaviorOversize,
	},
	AddrOversize: {
		ID: AddrOversize, Name: "AddrOversize", MessageType: "ADDR",
		Misbehavior: "More than 1000 addresses",
		Scores:      allScores(20), Object: AnyPeer, Type: MisbehaviorOversize,
	},
	InvOversize: {
		ID: InvOversize, Name: "InvOversize", MessageType: "INV",
		Misbehavior: "More than 50000 inventory entries",
		Scores:      allScores(20), Object: AnyPeer, Type: MisbehaviorOversize,
	},
	GetDataOversize: {
		ID: GetDataOversize, Name: "GetDataOversize", MessageType: "GETDATA",
		Misbehavior: "More than 50000 inventory entries",
		Scores:      allScores(20), Object: AnyPeer, Type: MisbehaviorOversize,
	},
	CmpctBlockInvalid: {
		ID: CmpctBlockInvalid, Name: "CmpctBlockInvalid", MessageType: "CMPCTBLOCK",
		Misbehavior: "Invalid compact block data",
		Scores:      allScores(100), Object: AnyPeer, Type: MisbehaviorInvalid,
	},
	FilterLoadOversize: {
		ID: FilterLoadOversize, Name: "FilterLoadOversize", MessageType: "FILTERLOAD",
		Misbehavior: "Bloom filter size > 36000 bytes",
		Scores:      allScores(100), Object: AnyPeer, Type: MisbehaviorOversize,
	},
	FilterAddNoBloomVersion: {
		ID: FilterAddNoBloomVersion, Name: "FilterAddNoBloomVersion", MessageType: "FILTERADD",
		Misbehavior: "Protocol version number >= 70011",
		Scores:      map[CoreVersion]int{V0_20_0: 100}, Object: AnyPeer, Type: MisbehaviorInvalid,
	},
	FilterAddOversize: {
		ID: FilterAddOversize, Name: "FilterAddOversize", MessageType: "FILTERADD",
		Misbehavior: "Data item > 520 bytes",
		Scores:      allScores(100), Object: AnyPeer, Type: MisbehaviorOversize,
	},
	VersionDuplicate: {
		ID: VersionDuplicate, Name: "VersionDuplicate", MessageType: "VERSION",
		Misbehavior: "Duplicate VERSION",
		Scores:      map[CoreVersion]int{V0_20_0: 1, V0_21_0: 1}, Object: InboundPeer, Type: MisbehaviorRepeat,
	},
	MessageBeforeVersion: {
		ID: MessageBeforeVersion, Name: "MessageBeforeVersion", MessageType: "VERSION",
		Misbehavior: "Message before VERSION",
		Scores:      map[CoreVersion]int{V0_20_0: 1, V0_21_0: 1}, Object: InboundPeer, Type: MisbehaviorDisorder,
	},
	MessageBeforeVerack: {
		ID: MessageBeforeVerack, Name: "MessageBeforeVerack", MessageType: "VERACK",
		Misbehavior: "Message (other than VERSION) before VERACK",
		Scores:      map[CoreVersion]int{V0_20_0: 1}, Object: InboundPeer, Type: MisbehaviorDisorder,
	},
}

// ruleOrder fixes the Table I row order for rendering.
var ruleOrder = []RuleID{
	BlockMutated, BlockCachedInvalid, BlockPrevInvalid, BlockPrevMissing,
	TxInvalidSegWit, GetBlockTxnOutOfBounds,
	HeadersNonConnecting, HeadersNonContinuous, HeadersOversize,
	AddrOversize, InvOversize, GetDataOversize, CmpctBlockInvalid,
	FilterLoadOversize, FilterAddNoBloomVersion, FilterAddOversize,
	VersionDuplicate, MessageBeforeVersion, MessageBeforeVerack,
}

// Catalog returns every rule in Table I order.
func Catalog() []Rule {
	out := make([]Rule, 0, len(ruleOrder))
	for _, id := range ruleOrder {
		out = append(out, ruleCatalog[id])
	}
	return out
}

// LookupRule returns the rule for id.
func LookupRule(id RuleID) (Rule, bool) {
	r, ok := ruleCatalog[id]
	return r, ok
}

// RuleSet returns the rules active in the given Core version, keyed by id,
// with the version-specific score resolved.
func RuleSet(v CoreVersion) map[RuleID]int {
	out := make(map[RuleID]int)
	for id, r := range ruleCatalog {
		if s, ok := r.Scores[v]; ok {
			out[id] = s
		}
	}
	return out
}

// MessageTypeCount is the number of P2P message types in the developer
// reference; the paper observes that only 12 of these 26 carry ban-score
// rules in 0.20.0, leaving the rest (e.g. PING) as score-free DoS vectors.
const MessageTypeCount = 26

// ScoredMessageTypes returns the distinct message types that carry at least
// one ban rule in the given version.
func ScoredMessageTypes(v CoreVersion) []string {
	seen := make(map[string]struct{})
	var out []string
	for _, id := range ruleOrder {
		r := ruleCatalog[id]
		if _, ok := r.Scores[v]; !ok {
			continue
		}
		if _, dup := seen[r.MessageType]; dup {
			continue
		}
		seen[r.MessageType] = struct{}{}
		out = append(out, r.MessageType)
	}
	return out
}
