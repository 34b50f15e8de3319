#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# a repository checkout:
#
#   bash bench/run.sh --workload miss-mixed --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh --seed 1                # every workload, both modes
#   bash bench/run.sh compare old.json new.json
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, and the binaries.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$out/bench" .
if [ "${1:-}" = compare ]; then
	shift
	exec "$out/bench" compare -root "$root" "$@"
fi
exec "$out/bench" -root "$root" "$@"
