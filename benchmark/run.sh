#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json: builds the benchmark (a Go
# module of its own that imports the repository's packages through a
# replace directive) into .bench_build/ inside the checkout and runs it.
# Everything the toolchain and the benchmark write stays under that
# directory: the build cache, scratch files, the WAL of the durable
# workload and the trace files of a traced run.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOTOOLCHAIN=local
export GONOSUMDB='*'
export CGO_ENABLED=0

# Fails (and the script with it) when the repository's own packages are not
# next to the benchmark: there is nothing to measure then.
go build -C "$here" -o "$out/banbench" .

cd "$root"
exec "$out/banbench" "$@"
