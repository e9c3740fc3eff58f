#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload thesis-sweep --seed 1 --seconds 25 --trace 0
#
# Every build artefact (binary, Go build cache) stays under .bench_build/
# in the current directory, so the script reads and writes nothing outside
# the checkout apart from the Go toolchain itself.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOENV=off
export GOWORK=off
export GOFLAGS=
export XDG_CONFIG_HOME=$out/config # keeps Go's telemetry counters in the checkout

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
