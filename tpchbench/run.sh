#!/usr/bin/env bash
# Builds the TPC-H benchmark from source and runs it. Run from the root of
# the repository; every argument is passed to the benchmark binary, e.g.
#
#   bash tpchbench/run.sh --workload adhoc-lan --seed 1 --seconds 35 --trace 0
#
# All build state (Go build cache, temporary files, the binary) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/tpchbench" && go build -o "$out/tpchbench" .)
exec "$out/tpchbench" -out "$out" "$@"
