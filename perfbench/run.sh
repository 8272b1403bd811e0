#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it:
#   bash perfbench/run.sh --workload spine_small --seed 1 --seconds 10 --trace 0
# Run from the root of the checkout. Every file the build and the run
# write (Go build cache, binary, op logs, span dumps) lands in
# .bench_build/ under that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/collab" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of a repro checkout (go.mod, internal/ and perfbench/ missing here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly
export GOWORK=off

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
