# Developer entry points. `make check` is the merge gate: vet, banlint, the
# docs reference check, build, the full test suite under the race
# detector, and the telemetry hot-path benchmarks (one iteration — enough
# to catch a broken or regressing instrumentation path without
# benchmarking noise in CI).

GO ?= go

.PHONY: check docs-check vet lint lint-json lint-sarif loc build benchmark-module test race bench bench-telemetry bench-trace bench-gate bench-baseline test-poolpoison fuzz-short chaos chaos-short chaos-crash fleet-short swarm-smoke swarm-full

check: vet lint docs-check build benchmark-module race test-poolpoison bench-telemetry bench-trace

# The second line vets the code a non-amd64 build compiles in place of the
# SHA-NI checksum kernel (internal/chainhash).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/chainhash/

# README.md and DESIGN.md against the tree: every backticked `make` target
# and repository path they name must exist, their analyzer lists must
# name exactly the analyzers banlint runs, and every cmd/experiments command
# line in the docs, this Makefile, CI and the verify skill must use only
# flags and experiment names the command has (docs_test.go).
docs-check:
	$(GO) test -count=1 -run '^Test(Doc(References|AnalyzerLists)|ExperimentsCommandLines)$$' .

# banlint: the repository's own analyzer suite (internal/lint). Zero
# findings is a merge requirement; waivers need //lint:allow with a reason.
lint:
	$(GO) run ./cmd/banlint ./...

# The two numbers the simplification round is judged on: non-test lines of
# Go under internal/, cmd/ and the facade, and the //lint:allow waivers in
# force (the linter's own sources only mention the directive).
LOC_FILES = git ls-files 'internal/*.go' 'cmd/*.go' banscore.go | grep -v -e '_test\.go$$' -e '/testdata/'

loc:
	@printf 'non-test lines: '; $(LOC_FILES) | xargs cat | wc -l
	@printf '//lint:allow waivers: '; $(LOC_FILES) | grep -v '^internal/lint/' | xargs cat | grep -c '//lint:allow [a-z]*('

lint-json:
	$(GO) run ./cmd/banlint -json ./...

lint-sarif:
	$(GO) run ./cmd/banlint -sarif banlint.sarif ./...

build:
	$(GO) build ./...

# benchmark/ is a module of its own (its replace directive resolves this
# one offline), so `./...` above never compiles it: a change to an exported
# signature it uses would otherwise first fail in CI.
benchmark-module:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -shuffle=on ./...

# The checked build: poisoned buffers, buffer balance, lock ranks. Freed
# wire buffers are overwritten with 0xdb, so any retained alias of a
# Released payload — a decode target that kept a slice of it — fails loudly
# instead of reading recycled bytes. Buffers handed out are counted against
# buffers Released or Detached, and each test binary (leakcheck.Main; wire's
# own TestMain) fails if one is still out at exit. Every lock in core,
# reputation, banstore and observer is a lockrank class: acquiring one
# while holding one of equal or higher rank panics naming both classes.
# The second line runs the wire checksum's crypto/sha256 fallback, the body
# every CPU without SHA-NI and every purego build uses.
test-poolpoison:
	$(GO) test -tags poolpoison -count=1 ./internal/wire/ ./internal/peer/ ./internal/node/ ./internal/swarm/ ./internal/attack/ ./internal/core/ ./internal/reputation/ ./internal/banstore/ ./internal/observer/ ./internal/chaos/ ./internal/lockrank/
	$(GO) test -tags purego -count=1 ./internal/chainhash/ ./internal/wire/

# Every native fuzz target in the tree, ten seconds each on top of its
# committed seed corpus (go test -fuzz takes one target and one package per
# run). A finding is written under the package's testdata/fuzz and fails
# the build. FuzzOpenRestore's inputs are kilobyte segment bodies and each
# call opens a store directory twice, so its minimization is capped at 100
# calls; uncapped, minimizing one new input outlasts the ten seconds.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzPipeHalf$$' -fuzztime 10s ./internal/simnet/
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s ./internal/wal/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenRestore$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/banstore/
	$(GO) test -run '^$$' -fuzz '^FuzzRing$$' -fuzztime 10s ./internal/ring/
	$(GO) test -run '^$$' -fuzz '^FuzzLedger$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzVersionDecodeReuse$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzNetgroupKey$$' -fuzztime 10s ./internal/reputation/
	$(GO) test -run '^$$' -fuzz '^FuzzPeerPath$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzChecksum4$$' -fuzztime 10s ./internal/chainhash/

bench-telemetry:
	$(GO) test -run xxx -bench BenchmarkTelemetry -benchtime 1x ./...

bench-trace:
	$(GO) test -run xxx -bench BenchmarkTraceDispatch -benchtime 1x ./...

# Full benchmark sweep (tables, figures, ablations). Slow; not part of check.
bench:
	$(GO) test -bench . -benchmem ./...

# Benchmark-regression gate. The gated families are the hot paths with
# committed baselines in BENCH_baseline.json: telemetry instrumentation,
# trace dispatch, the sharded ban-score engine, ban-list reads, the pooled
# wire codec, the simnet pipe every workload crosses, the peer's PING → PONG
# reply path, the banstore WAL append + recovery replay, and the fleet
# observer's store ingest. Fixed iteration counts keep run-to-run variance
# down; cmd/benchdiff fails the build past its tolerance, and any allocation
# on a zero-alloc baseline fails outright. This is the only copy of the
# pattern: CI calls `make bench-gate`.
BENCH_GATE_PATTERN = 'BenchmarkTelemetry|BenchmarkTraceDispatch|BenchmarkBanScore|BenchmarkBanList|BenchmarkWire|BenchmarkPipe|BenchmarkPeer|BenchmarkReputation|BenchmarkNetgroup|BenchmarkWALAppend|BenchmarkRecovery|BenchmarkObserver'

# The swarm scenario bench is gated separately: one iteration IS a full
# 1000-peer Sybil swarm (admission, flood, churn, exact ban count), so it
# runs -benchtime 1x and benchdiff gates only its reported rates (peers/s,
# msgs/s — higher-is-better) and ns/msg, not the scenario's wall-clock
# ns/op, which includes readiness polling. ($$ is make's escape for the
# shell's literal $ anchor.)
SWARM_GATE_PATTERN = 'BenchmarkSwarmScale/peers=1000$$'

# -count=3: benchdiff keeps the per-metric minimum (maximum, for rates)
# across repeats, which filters scheduler noise far better than one long
# run on a busy machine. The raw event stream is kept in bench-output.json
# (CI uploads it as an artifact).
bench-gate:
	{ $(GO) test -run xxx -bench $(BENCH_GATE_PATTERN) -benchtime 100000x -benchmem -count=3 -json ./... ; \
	  $(GO) test -run xxx -bench $(SWARM_GATE_PATTERN) -benchtime 1x -count=3 -json ./internal/swarm/ ; } | tee bench-output.json | $(GO) run ./cmd/benchdiff

# Refresh the committed baseline (after an intentional perf change; run on
# a quiet machine and commit the resulting BENCH_baseline.json).
bench-baseline:
	{ $(GO) test -run xxx -bench $(BENCH_GATE_PATTERN) -benchtime 100000x -benchmem -count=3 -json ./... ; \
	  $(GO) test -run xxx -bench $(SWARM_GATE_PATTERN) -benchtime 1x -count=3 -json ./internal/swarm/ ; } | $(GO) run ./cmd/benchdiff -update

# Chaos scenarios: a mining node + honest peers + an attacker under 30%
# loss, injected resets, and a timed partition, always under the race
# detector. `chaos` runs the full storm; `chaos-short` is the CI variant
# with a shortened partition.
chaos:
	$(GO) test -race -count=1 -timeout 300s ./internal/chaos/

chaos-short:
	$(GO) test -race -short -count=1 -timeout 300s ./internal/chaos/

# Kill/restart chaos: the crash-storm scenarios (simulated and real
# SIGKILL) plus the recovery edge cases of the shared log layer and of the
# banstore and fleet-observer stores on top of it, under the race detector.
chaos-crash:
	$(GO) test -race -count=1 -timeout 300s -run 'Crash|Restart|Recover|SIGKILL' ./internal/wal/ ./internal/banstore/ ./internal/chaos/ ./internal/node/ ./internal/observer/

# Fleet smoke: launch 3 real btcnode processes on loopback TCP, replay one
# Defamation identity and one Sybil identity against all of them at once,
# and write the cross-node ban-propagation result as a JSON artifact. The
# run is bounded by the fleet's 30s ban-propagation wait.
fleet-short:
	$(GO) run ./cmd/fleet -nodes 3 -sybils 1 -out fleet-propagation.json

# Swarm smoke: the event-loop engine's full test suite under the race
# detector (handshake, exact-threshold ban, slot reuse after churn,
# draining-shard churn, fault-plan teardown, oversized-frame rejection,
# EOF drain, plus the default 1500-peer scenario), then the scenario again
# at 10k identities without race overhead, then the experiments runner to
# produce the swarm JSON artifact. Leak assertions run via the package's
# leakcheck TestMain.
swarm-smoke:
	$(GO) test -race -shuffle=on -count=1 -timeout 600s ./internal/swarm/
	BANSCORE_SWARM_PEERS=10000 $(GO) test -count=1 -timeout 600s -run TestSwarmScenario ./internal/swarm/
	$(GO) run ./cmd/experiments -scale quick -only swarm -json swarm-smoke.json

# The headline scale run: 100k concurrent simulated attackers in one
# process, every identity banned. Minutes of runtime and a few GB of RSS;
# the nightly workflow pays this, the per-change gate does not.
swarm-full:
	$(GO) run ./cmd/experiments -scale paper -only swarm -json swarm-100k.json
