#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the run's index files all live in
# .bench_build/ at the repository root, so a run writes nothing outside the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --dir "$build" "$@"
