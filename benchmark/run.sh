#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds crbench inside the checkout
# (build cache included, so nothing is written outside it) and hands it
# the driver's arguments. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload live_paper_mix --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/crserver ] || [ ! -f benchmark/go.mod ]; then
	echo "run.sh: the working directory is not a checkout of the repository (no go.mod, cmd/crserver or benchmark/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin"
# Everything the go command writes stays in the checkout: build cache,
# module directory, and its per-user configuration and counters.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

crbench="$out/bin/crbench"
if [ ! -x "$crbench" ] || [ -n "$(find benchmark -name '*.go' -newer "$crbench" -print -quit)" ]; then
	go build -C benchmark -o "$crbench" .
fi
exec "$crbench" "$@"
