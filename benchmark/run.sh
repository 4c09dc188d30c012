#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ and runs it from the
# checkout root with the caller's arguments. Everything the go command
# writes — build cache, module cache, temporary files, its telemetry
# counters (under the user configuration directory) — is pointed into
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	go build -C "$root/benchmark" -o "$build/elsa-benchmark" .
exec "$build/elsa-benchmark" "$@"
