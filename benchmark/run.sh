#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it. Everything
# the build and the run leave behind stays under .bench_build/ in the
# checkout (the Go build cache included), so a run reads and writes nothing
# outside it. Arguments are passed through to the benchmark binary:
#
#   bash benchmark/run.sh --workload routed_open --seed 1 --seconds 20 --trace 0
#
# In a directory without the repo's go.mod and internal/ packages the build
# fails and this script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOTOOLCHAIN=local
if [ -z "${HOME:-}" ] && [ -z "${GOPATH:-}" ]; then
	export GOPATH="$PWD/$out/gopath"
fi
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
