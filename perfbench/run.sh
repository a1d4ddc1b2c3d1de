#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Every build artifact (the Go build cache included) lands under
# .bench_build/ in the checkout, so nothing is read or written outside it.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: $root holds no go.mod; run from the root of a full checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" "$@"
