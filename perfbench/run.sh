#!/usr/bin/env bash
# Builds the perfbench command from source and runs it. Run it from the
# root of a checkout of this repository, for example:
#
#   bash perfbench/run.sh --workload serial-reddit --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the binary, trace files and scratch snapshots all
# stay under .bench_build/ in the checkout ($CARGO_TARGET_DIR when set).
# The build needs the repository around perfbench/: without it, it fails
# and the script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTELEMETRY=off
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
# The workloads fix their backend and size the pool to the CPUs.
unset CAGNET_BACKEND CAGNET_WORKERS

(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
