#!/usr/bin/env bash
# Builds kiterd and the perflab command from this checkout, then runs one
# perflab measurement. Run it from the repository root:
#
#   bash perflab/run.sh --workload solve_cold --seed 1 --seconds 10 --trace 0
#
# Every build artifact, Go cache and log stays under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/kiterd" || ! -f "$root/perflab/go.mod" ]]; then
	echo "perflab: run from the root of a kiter checkout" >&2
	exit 2
fi
out="$root/.bench_build/perflab"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	GOMODCACHE="$out/home/go/pkg/mod" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off GOTELEMETRY=off
go build -o "$out/kiterd" ./cmd/kiterd
go -C perflab build -o "$out/perflab" .
exec "$out/perflab" -kiterd "$out/kiterd" -out "$out" "$@"
