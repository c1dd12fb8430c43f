#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload submit-burst --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artifact, the Go build cache and
# the durable workload's data directory live under .bench_build/ in the
# current directory, so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/wire" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (need go.mod, internal/ and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/config"
# The module needs nothing from the network; the Go tool's caches and its
# telemetry counters (under the user config directory) stay in the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOENV=off

# Build to a per-process name and rename, so concurrent invocations never
# execute a half-written binary.
go -C "$root/perfbench" build -o "$out/perfbench.$$" . >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
exec "$out/perfbench" "$@"
