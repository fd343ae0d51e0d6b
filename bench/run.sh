#!/usr/bin/env bash
# Builds the benchmark and the server under test from the checkout this
# script sits in, then runs the benchmark. Everything it writes stays
# under bench/.work and bench/out.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .work/bin
export GOCACHE="$PWD/.work/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o .work/bin/bench .
(cd .. && go build -o bench/.work/bin/seqserved ./cmd/seqserved)
exec .work/bin/bench "$@"
