#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with
# the given arguments. Run from the repository root:
#
#   bash _livebench/run.sh --workload raft-write-c4 --seed 1 --seconds 18 --trace 0
#
# Every build and cache file stays under .bench_build/ in the current
# directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/livebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$(dirname "$0")" && go build -o "$out/livebench" .)
exec "$out/livebench" "$@"
