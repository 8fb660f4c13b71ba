#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing
# every argument through. Run from the repository root:
#
#	bash perfbench/run.sh --workload purge-dense --seed 1 --seconds 12 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build in the
# current directory, so nothing is written outside the checkout.
set -euo pipefail
root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" -rundir "$out/run" "$@"
