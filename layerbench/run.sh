#!/usr/bin/env bash
# Builds layerbench from the checkout this script sits in and runs it; the
# arguments pass through, e.g.
#
#   bash layerbench/run.sh --workload explore --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: the Go build cache, temporary files, the binary, the span
# files and the ingest workload's store directories.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/bin/layerbench" .)
cd "$root"
exec "$build/bin/layerbench" --out "$build/layerbench" "$@"
