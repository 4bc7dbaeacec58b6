package reputation

import (
	"net"
	"strconv"
	"strings"
	"testing"

	"banscore/internal/core"
)

func TestNetgroupKeyDerivation(t *testing.T) {
	cases := []struct {
		name string
		id   core.PeerID
		want string
	}{
		{"ipv4 /16", "203.0.113.7:8333", "ip4:203.0/16"},
		{"ipv4 same /16 different host", "203.0.200.250:18333", "ip4:203.0/16"},
		{"ipv4 different /16", "203.1.113.7:8333", "ip4:203.1/16"},
		{"ipv4 low octets", "10.0.0.1:8333", "ip4:10.0/16"},
		{"ipv6 /32", "[2001:db8::1]:8333", "ip6:2001:0db8/32"},
		{"ipv6 same /32 different interface", "[2001:db8:ffff::42]:8333", "ip6:2001:0db8/32"},
		{"ipv6 different /32", "[2002:db8::1]:8333", "ip6:2002:0db8/32"},
		{"ipv4-mapped ipv6 joins the v4 group", "[::ffff:203.0.113.7]:8333", "ip4:203.0/16"},
		{"host without port", "203.0.113.7", "ip4:203.0/16"},
		{"ipv6 host without port", "2001:db8::1", "ip6:2001:0db8/32"},
		{"simnet logical name", "attacker-3:0", "id:attacker-3:0"},
		{"bare logical name", "victim", "id:victim"},
		{"empty", "", "id:"},
		{"garbage", "not an address at all", "id:not an address at all"},
		{"too many colons unbracketed", "1:2:3:4:5", "id:1:2:3:4:5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := NetgroupKey(tc.id)
			if got != tc.want {
				t.Fatalf("NetgroupKey(%q) = %q, want %q", tc.id, got, tc.want)
			}
			// Stability: the same identifier always lands in the same group.
			if again := NetgroupKey(tc.id); again != got {
				t.Fatalf("NetgroupKey(%q) unstable: %q then %q", tc.id, got, again)
			}
		})
	}
}

func TestNetgroupKeySybilsShareGroupVictimDoesNot(t *testing.T) {
	// The property the engine's budget rests on: a swarm minting ports (or
	// hosts) inside one /16 maps to one key, while a victim elsewhere maps
	// to another.
	swarm := NetgroupKey("10.7.1.1:49152")
	for _, id := range []core.PeerID{"10.7.1.1:49153", "10.7.200.9:65535", "10.7.0.1:8333"} {
		if NetgroupKey(id) != swarm {
			t.Fatalf("swarm identity %q escaped group %q (got %q)", id, swarm, NetgroupKey(id))
		}
	}
	if victim := NetgroupKey("10.8.0.1:8333"); victim == swarm {
		t.Fatalf("victim in different /16 shares group %q with the swarm", swarm)
	}
}

func TestNetgroupKeyMalformedNeverPanics(t *testing.T) {
	// Fuzz-ish sweep over hostile identifier shapes; every one must return
	// a non-empty per-identifier key rather than panicking or colliding
	// into a shared bucket.
	hostiles := []core.PeerID{
		":", "::", ":::", "[]:", "[", "]", "[::1", "::1]:8333",
		"999.999.999.999:1", "1.2.3:8333", "%zz:8333", "\x00\xff:1",
		"a b c", ":8333",
	}
	for _, id := range hostiles {
		key := NetgroupKey(id)
		if key == "" {
			t.Fatalf("NetgroupKey(%q) returned empty key", id)
		}
	}
	// ":8333" has an empty host — it must not share a bucket with another
	// malformed identifier.
	if NetgroupKey(":8333") == NetgroupKey(":18333") {
		t.Fatalf("distinct malformed identifiers collided into one group")
	}
}

// FuzzNetgroupKey holds NetgroupKey to its contract over attacker-chosen
// identifiers: every key is an ip4:, ip6: or id: key; the id: fallback is
// taken exactly when the host does not parse; every port of an IPv4 host
// shares one key (a framer who mints ports cannot spread, or dodge, the
// group charge); and ::ffff:a.b.c.d joins a.b.c.d's group.
func FuzzNetgroupKey(f *testing.F) {
	for _, id := range []string{
		"203.0.113.7:8333", "[2001:db8::1]:8333", "[::ffff:203.0.113.7]:8333",
		"203.0.113.7", "2001:db8::1", "attacker-3:0", "", ":8333", "[::1",
		"999.999.999.999:1", "1:2:3:4:5", "[fe80::1%eth0]:8333", "\x00\xff:1",
	} {
		f.Add(id, uint16(8333))
	}
	f.Fuzz(func(t *testing.T, id string, port uint16) {
		key := NetgroupKey(core.PeerID(id))
		if !strings.HasPrefix(key, prefixIPv4) && !strings.HasPrefix(key, prefixIPv6) && !strings.HasPrefix(key, prefixSelf) {
			t.Fatalf("NetgroupKey(%q) = %q: no ip4:, ip6: or id: prefix", id, key)
		}
		host, _, err := net.SplitHostPort(id)
		if err != nil {
			host = id
		}
		ip := net.ParseIP(host)
		if (key == prefixSelf+id) != (ip == nil) {
			t.Fatalf("NetgroupKey(%q) = %q, host %q parses: %v", id, key, host, ip != nil)
		}
		v4 := ip.To4()
		if v4 == nil {
			return
		}
		p := strconv.Itoa(int(port))
		dotted := v4.String()
		for _, other := range []string{dotted, net.JoinHostPort(dotted, p), net.JoinHostPort("::ffff:"+dotted, p)} {
			if got := NetgroupKey(core.PeerID(other)); got != key {
				t.Fatalf("NetgroupKey(%q) = %q, but NetgroupKey(%q) = %q", other, got, id, key)
			}
		}
	})
}

func BenchmarkNetgroupLookup(b *testing.B) {
	e := New(Config{})
	id := core.PeerID("203.0.113.7:8333")
	e.Penalize(id, 10) // make the identity known so lookup hits the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.GroupOf(id) == "" {
			b.Fatal("empty group")
		}
	}
}
