#!/bin/sh
# Builds cmd/cheribench and runs it from the repository root. Every Go build
# artefact, temp file, result store and trace lands under .bench_build/, so
# a run reads and writes nothing outside the checkout and needs no network.
#
#   sh cmd/cheribench/bench.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CACHE_HOME="$out/cache" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd cmd/cheribench && go build -o "$out/cheribench" .)
exec "$out/cheribench" -root "$root" "$@"
