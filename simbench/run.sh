#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it. Run from the
# repository root:
#
#   bash simbench/run.sh --workload stream-65k-128h --seed 42 --seconds 20 --trace 0
#
# Every file the build and the run write stays under the build directory
# (CARGO_TARGET_DIR if set, else .bench_build): the Go build cache, the
# binary, and a traced run's spans and CPU profile.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/config/go/telemetry"
# Telemetry off: the go command would otherwise start a detached upload
# helper that outlives the run.
printf off > "$build/config/go/telemetry/mode"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/simbench" .)
exec "$build/simbench" -out "$build/simbench-out" "$@"
