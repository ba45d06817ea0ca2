#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Everything the Go tool writes (build cache, temporary files, its own
# bookkeeping) and the binary go under benchmark/out/, so a run reads and
# writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" XDG_CONFIG_HOME="$PWD/out/config" GOWORK=off GOFLAGS=
go build -o out/treesvd-bench .
exec out/treesvd-bench "$@"
