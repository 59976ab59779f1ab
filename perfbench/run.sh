#!/usr/bin/env bash
# Builds crhd and the benchmark from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-stock --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build
# in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

# With telemetry on (the default "local" mode) every go command may fork
# a detached sidecar that outlives it; turning it off first (a command
# that itself starts none) means no go invocation below leaves one behind.
# A go older than 1.23 has neither the command nor the sidecar.
go telemetry off 2>/dev/null || true
go build -o "$build/bin/crhd" ./cmd/crhd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -crhd "$build/bin/crhd" -work "$build/runs" "$@"
