#!/bin/sh
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare -base base.jsonl -head head.jsonl
#
# Everything the build and the run write stays under .bench_build/ of the
# checkout: the Go build cache, the binary and the benchmark's scratch
# state. A checkout without the repository's sources fails the build, and
# with it the run.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
cd "$root/bench"
go build -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
