#!/usr/bin/env bash
# Builds cmd/hefbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/hefbench/run.sh --workload search-cold --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the benchmark's temporary files (the
# hefd data directories) all stay under .bench_build/ in the repository.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# Build offline with the installed toolchain only.
export GOTOOLCHAIN=local GOPROXY=off

(cd cmd/hefbench && go build -o "$out/hefbench" .)
exec "$out/hefbench" "$@"
