#!/usr/bin/env bash
# Builds the benchmark and perspectord from this checkout's sources and
# runs one workload:
#
#   bash perfbench/run.sh --workload compare_cold --seed 2023 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything the Go toolchain writes
# (build cache, binaries, scratch run directories) stays under
# .bench_build/ in the checkout; CARGO_TARGET_DIR, when set, names it.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/runs" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/home"
export XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

# Both binaries come from the benchmark's module, whose go.mod points
# the perspector module at the checkout root; outside a checkout the
# build fails here and no result is printed.
go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2
go -C "$root/perfbench" build -o "$out/bin/perspectord" perspector/cmd/perspectord >&2

exec "$out/bin/perfbench" -perspectord "$out/bin/perspectord" -workdir "$out/runs" "$@"
