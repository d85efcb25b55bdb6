#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# arguments given. Everything the build writes — binary, Go build cache —
# stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/: the benchmark builds the repository it measures" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/uccbench-e2e" ./bench
exec "$build/uccbench-e2e" "$@"
