#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, passing the benchmark's flags through:
#
#	bash perfbench/run.sh --workload lan-packet --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, toolchain config)
# stays under .bench_build/ in the repository root.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
