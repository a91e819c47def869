#!/usr/bin/env bash
# Builds the campaign benchmark and the compi-target pipe binary from this
# checkout, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash bench/run.sh -workload susy-deep -seed 1 -seconds 12 -trace 0
#   bash bench/run.sh -reps 3 -seed 1          # every workload, result file
#   bash bench/run.sh -compare A.json B.json   # apply BENCHMARK.json bounds
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and binaries under .bench_build/, result files
# and traces under bench/out/. The build fails, and the script exits non-zero
# without output, when the repository sources are not next to bench/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C bench build -o "$build/bin/bench" .
go build -o "$build/bin/compi-target" ./cmd/compi-target
# A child, not exec'd: an exec'd benchmark would inherit the go builds in its
# children's resource usage, which proto.child_rss_mb reads.
"$build/bin/bench" -target-bin "$build/bin/compi-target" "$@"
