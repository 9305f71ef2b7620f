#!/usr/bin/env bash
# Builds the benchmark and the lacretd daemon from the source of the
# checkout it is run in (the current directory), then runs the benchmark:
#
#   bash perfbench/run.sh --gomaxprocs 2 --tail plan-pass=75,lac-rounds=50,daemon-iterate=95 \
#       --workload plan-pass --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache, the go command's own config,
# telemetry and temporary files, daemon data directories and trace files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/lacretd" lacret/cmd/lacretd) >&2
exec "$out/perfbench" --lacretd "$out/lacretd" --work "$out" "$@"
