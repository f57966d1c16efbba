#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tune-database --seed 42 --seconds 40 --trace 0
#
# The Go build cache, the binary, temp AutoDBs and span files all live
# under .bench_build/ at the checkout root; nothing is downloaded. Extra
# flags (-record) pass through to the binary.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: $root does not hold the autoblox sources" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/perfbench" .)

exec "$build/perfbench" -expect "$here/expect.json" "$@"
