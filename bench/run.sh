#!/usr/bin/env bash
# Builds the bench binary from source, inside the checkout, and runs it
# with the arguments given. The binary and everything the Go tool writes
# (build cache, work directory, its own usage counters) live under
# .bench_build/ at the checkout's root, so nothing is written outside it;
# the first run compiles the standard library too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=$PWD/.bench_build
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go -C bench build -o "$out/tokenbench" .
exec "$out/tokenbench" "$@"
