#!/usr/bin/env bash
# Builds jpackd and classpack-bench from the checkout in the current
# directory, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash cmd/classpack-bench/run.sh --workload codec --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache and every run's scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Build time is not part of any metric. Without the
# repository's sources the build fails and the script exits non-zero
# before any result is printed.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/bin" "$out/tmp" "$out/run"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CACHE_HOME="$out/xdg-cache" XDG_CONFIG_HOME="$out/xdg-config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

# With telemetry on (the default "local" mode in a fresh config dir) the
# go command starts a detached upload process that outlives it. Turn it
# off so the script leaves no process behind, on success or failure.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/bin/jpackd" ./cmd/jpackd
(cd cmd/classpack-bench && go build -o "$out/bin/classpack-bench" .)
exec "$out/bin/classpack-bench" -jpackd "$out/bin/jpackd" -workdir "$out/run" "$@"
