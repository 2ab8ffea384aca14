#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs one
# workload; arguments pass through (see main.go). Run from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Every build and result file stays inside the checkout: the Go build
# cache and home directory under .bench_build/, results and spans under
# .bench_out/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a checkout of the repository" >&2
	exit 2
fi
build="${root}/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CACHE_HOME="$build/home/.cache" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off

# Commit identity only when the checkout itself is a git work tree, not
# a plain tree that happens to sit inside another repository.
if [[ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" == "$root" ]] &&
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
	export PERFBENCH_COMMIT="$commit"
	if [[ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]]; then
		export PERFBENCH_DIRTY=true
	else
		export PERFBENCH_DIRTY=false
	fi
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
