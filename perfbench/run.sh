#!/usr/bin/env bash
# Builds the benchmark and rtserve from the checkout's sources, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind goes under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rtserve" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/rtserve not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/gocache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
go build -o "$build/bin/rtserve" ./cmd/rtserve >&2
exec "$build/bin/perfbench" -root "$root" "$@"
