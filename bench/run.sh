#!/usr/bin/env bash
# Builds shadowbench from this checkout's source and runs it with the given
# arguments, from the checkout root:
#
#   bash bench/run.sh --workload small-sweep --seed 42 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, campaign stores, traces and
# result records. Nothing is fetched: the module has no dependencies beyond
# the repository it sits in.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$root/bench" -o "$out/shadowbench" ./cmd/shadowbench
exec "$out/shadowbench" "$@"
