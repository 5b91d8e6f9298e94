#!/usr/bin/env bash
# Builds the GenDT serving benchmark from source and runs it. Run it from
# the repository root:
#
#   bash servebench/run.sh --workload hot-routes --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, the JSON reports and
# the span files. Without the parent module next to servebench/ the build
# fails, and so does this script, before anything is measured.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out/home"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

(cd "$root/servebench" && go build -o "$out/servebench" .)
exec "$out/servebench" -out-dir "$out" "$@"
