#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -workload paper-testbed -seed 3 -seconds 15 -trace 0
#
# Run it from the repository root. The binary and the Go build cache go to
# .bench_build/ (or $CARGO_TARGET_DIR when set), so nothing outside the
# checkout is written. Building needs the repository's own go.mod one level
# up; without it the build fails and the script exits non-zero.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$(pwd)/$build" ;; esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
