#!/usr/bin/env bash
# Builds the benchmark and the fleet's three servers from this checkout, then
# runs one benchmark invocation. Run it from the root of the checkout:
#
#   bash fleetbench/run.sh --workload unique_bin --seed 1 --seconds 45 --trace 0
#
# Everything it writes — binaries, Go's build cache, the trained checkpoint
# and process logs — goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOWORK=off GOTOOLCHAIN=local GOPROXY=off

# The benchmark is its own module; its go.mod points the itask module at the
# checkout, so the servers are built from the code under test. Without the
# repository around it (no ../go.mod) the build fails and nothing runs.
(cd "$root/fleetbench" && go build -o "$out/bin/" . itask/cmd/itask-train itask/cmd/itask-serve itask/cmd/itask-gateway)

exec "$out/bin/fleetbench" -bin "$out/bin" -work "$out/run" "$@"
