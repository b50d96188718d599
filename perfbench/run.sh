#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload ycsb-c-pool --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and binary all live under .bench_build/ in
# the checkout, so nothing is read from or written to the user's home. The
# build ignores any go.work and version control around the checkout: the
# checkout need not be a repository, and may sit inside one it cannot read.
set -euo pipefail

# A shell that did not read the user's profile may lack Go on its PATH; fall
# back to the default install location of the official Go distribution.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$(pwd)/.bench_build"
mkdir -p "$out/home"
(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
	go -C perfbench build -buildvcs=false -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
