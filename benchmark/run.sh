#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays under this directory (.build/ and out/), so a checkout can
# be thrown away afterwards. Arguments are passed through, e.g.
#   bash benchmark/run.sh --workload wire-sync --seed 3 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .build/tmp
# The go command's own caches, temporary files and counters, kept in here too.
export GOCACHE="$PWD/.build/gocache" GOTMPDIR="$PWD/.build/tmp" GOPATH="$PWD/.build/gopath"
export XDG_CONFIG_HOME="$PWD/.build/config" GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o .build/bench .
exec .build/bench "$@"
