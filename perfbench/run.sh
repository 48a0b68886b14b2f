#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload enron-text --seed 1 --seconds 10 --trace 0
# Everything the build writes (binary, Go build cache, span dumps) lands
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
