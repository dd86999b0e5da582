#!/usr/bin/env bash
# Builds the benchmark driver, the layer probes and saimserve from this
# checkout's sources, then runs one workload. Run it from the repository
# root:
#
#   bash saimbench/run.sh --workload qkp-dense --seed 1 --seconds 15 --trace 0
#
# The binaries, Go's caches and every scratch file go under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/saimbench"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/saimbench" && go build -o "$out/bin/" ./cmd/saimbench ./cmd/saimprobe \
	github.com/ising-machines/saim/cmd/saimserve) >&2
exec "$out/bin/saimbench" --bin "$out/bin" --work "$out" "$@"
