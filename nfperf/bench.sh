#!/usr/bin/env bash
# Builds nfperf from this checkout's source and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash nfperf/bench.sh --workload fuzz-attack --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache, the binary, temporary files and
# spans) goes under $CARGO_TARGET_DIR, default .bench_build, so nothing
# outside the checkout is touched. Build output goes to standard error, so
# the last line of standard output is nfperf's result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/tmp"

export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export TMPDIR=$out/tmp GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/nfperf" && go build -o "$out/nfperf" .) >&2
case ${1:-} in
-*) exec "$out/nfperf" --spans "$out/spans" "$@" ;; # the benchmark protocol
*) exec "$out/nfperf" "$@" ;;                        # run, trace, compare
esac
