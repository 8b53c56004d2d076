#!/usr/bin/env bash
# Builds the benchmark from the sources around it and runs it with the
# arguments given, from the root of the repository. Everything the build
# writes — the Go build cache included — goes under .bench_build there, so a
# run touches nothing outside the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
