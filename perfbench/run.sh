#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
# Build outputs (binary, Go build cache) go under $CARGO_TARGET_DIR, or
# .bench_build when it is unset, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home"

(
	cd "$root/perfbench"
	HOME=$out/home XDG_CONFIG_HOME=$out/home GOCACHE=$out/gocache \
		GOPATH=$out/gopath GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
