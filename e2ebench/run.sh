#!/usr/bin/env bash
# Builds tarserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload query-paper --seed 1 --seconds 24 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
# Turn Go telemetry off for this config dir before the first go command:
# otherwise go forks a detached telemetry process that outlives the run.
mkdir -p "$out/config/go/telemetry"
printf 'off\n' > "$out/config/go/telemetry/mode"
go build -o "$out/tarserve" ./cmd/tarserve
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --tarserve "$out/tarserve" --work "$out" "$@"
