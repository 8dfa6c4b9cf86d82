#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload ft-train --seed 1 --seconds 12 --trace 0
#
# Every build output, cache and trace stays under .bench_build/ in the
# current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of an ftpim checkout (go.mod and internal/ not found)" >&2
	exit 2
fi
if ! command -v go >/dev/null; then
	PATH="$PATH:/usr/local/go/bin" # the Go toolchain's default install location
fi
root="$PWD"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -trimpath -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
