package main

// pinnedDigests are the SHA-256 digests of the seed-1 inputs at the sizes
// TestInputsComeFromTheSeed builds them. They change only when a generator
// changes — and then results stop comparing with earlier ones, which is why
// the test makes that loud.
var pinnedDigests = map[string]string{
	"bogus_block_flood": "3e8f08d3769b3f48fb4749c7bfdb3b09fb90cb22d4676496aaeef2727864bae7",
	"honest_relay":      "79617f44f67c40fb9eac78302f68523eacfaeeef4f8ee91be2fd883500d670eb",
	"ping_flood":        "3844cc5d8e4d515b41ec3f1733ad46c9653e67865cde91902159cacaeb01f3fa",
	"sybil":             "1e2fbba965e973a087b2b573d991bc69c6a4f60ae16a0e531155a80df6b71a05",
}
