#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload btio-full --seed 1 --seconds 50 --trace 0
#
# Every file it writes (the Go build cache, the binary, the run's
# scratch store) lands under .bench_build in the current directory.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/go-tmp"

# Keep the Go toolchain's files inside the checkout and off the network.
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/go-tmp" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off GOSUMDB=off
(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out" "$@"
