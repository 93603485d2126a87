#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it from the checkout root:
#
#   bash perfbench/run.sh --workload serve-twi --seed 1 --seconds 10 --trace 0
#
# The Go build cache, telemetry and the binary are kept under .bench_build so
# the run reads and writes only inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
# The binary goes under bin/: .bench_build/perfbench/ holds the span dumps.
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
