#!/usr/bin/env bash
# Tier-1 verification: what CI runs and what every PR must keep green.
# The go build step alone would have caught the seed's missing-package
# regression (7 of 10 packages failed to compile); vet and the full test
# suite catch the rest.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== go vet ./... =="
go vet ./...

echo "== gofmt -l . =="
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
  echo "files not gofmt-clean:" >&2
  echo "$UNFORMATTED" >&2
  exit 1
fi

echo "== go build compi-target =="
BIN_DIR="$(mktemp -d)"
trap 'rm -rf "$BIN_DIR"' EXIT
go build -o "$BIN_DIR/compi-target" ./cmd/compi-target
# The cross-process conformance suite drives this binary; exporting the
# path keeps the test from rebuilding it per package run.
export COMPI_TARGET_BIN="$BIN_DIR/compi-target"

echo "== go build compi =="
# Built once here; the kill-and-resume and fleet steps below all drive it.
go build -o "$BIN_DIR/compi" ./cmd/compi

echo "== CLI mode registry smoke (every mode's -h exits 0 and names the mode) =="
# main.go is dispatch only — mode logic lives in per-mode files. The line
# guard keeps it from silently re-accreting.
MAIN_LINES="$(wc -l < cmd/compi/main.go)"
if [ "$MAIN_LINES" -gt 150 ]; then
  echo "cmd/compi/main.go is $MAIN_LINES lines (max 150); move mode logic into per-mode files" >&2
  exit 1
fi
for m in $("$BIN_DIR/compi" help -names); do
  USAGE="$("$BIN_DIR/compi" "$m" -h 2>&1)" || {
    echo "compi $m -h exited non-zero" >&2; exit 1; }
  echo "$USAGE" | grep -qi -- "$m" || {
    echo "compi $m -h usage does not mention the mode:" >&2
    echo "$USAGE" >&2
    exit 1
  }
done

echo "== go test ./... =="
go test ./...

echo "== go test -race ./internal/proto =="
go test -race ./internal/proto

echo "== fuzz the pipe frame decoders (10s) =="
# FuzzDecodeFrame feeds arbitrary bytes to the JSON handshake reader and the
# binary assign and rank decoders; a crash or a non-identical re-encoding
# fails the step.
go test ./internal/proto -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 10s

echo "== go test -race ./internal/target/... =="
go test -race ./internal/target/...

echo "== go test -race ./internal/solver ./internal/sched ./internal/coverage ./internal/store =="
go test -race ./internal/solver ./internal/sched ./internal/coverage ./internal/store

echo "== go test -race -count=10 (solver service compile cache) =="
# A sched batch shares one solver service, and with it the compile cache,
# between its workers.
go test -race -count=10 ./internal/solver -run 'TestServiceConcurrent'

echo "== go test -race ./internal/binstat ./internal/expr =="
# The profiler takes concurrent bin updates from a batch's workers, and the
# canonical-key memo, which only the benchmark's replay still calls, keeps
# its concurrency test; the race detector is the test that matters.
go test -race ./internal/binstat ./internal/expr

echo "== go test -race ./internal/fleet =="
go test -race ./internal/fleet

echo "== go test -race -cpu 1,2 ./internal/mpi ./internal/conc =="
# A launch's ranks run as coroutines on one scheduler goroutine, so what is
# concurrent is Launch's watchdog against that goroutine: the timeout, the
# abandoned rank that never yields, and the results they share. Both
# GOMAXPROCS values also run the wildcard-order determinism test. The
# random streams live in internal/conc: the ranks of a launch replay one,
# and a stream is safe for cursors on concurrent goroutines.
go test -race -cpu 1,2 ./internal/mpi ./internal/conc

echo "== cross-process conformance (piped == in-process) =="
go test ./internal/proto -run 'TestCrossProcessConformance|TestScheduleConformance|TestSchedMixedConformance|TestSchedShardedServiceConformance|TestSnapshotConformance' -count=1

echo "== kill-and-resume determinism (compi -state / sched store) =="
# A campaign stopped at iteration k and resumed from its state file must
# equal the uninterrupted run. The sched half is TestKillResume, which kills
# a store-backed batch inside a checkpoint hook in a child process and
# requires the rerun to run only the remaining iterations, plus the store
# tests listed below.
STATE_DIR="$(mktemp -d)"
"$BIN_DIR/compi" -target skeleton -iters 200 -seed 7 > "$STATE_DIR/full.out"
"$BIN_DIR/compi" -target skeleton -iters 80 -seed 7 -state "$STATE_DIR/state.json" > /dev/null
"$BIN_DIR/compi" -target skeleton -iters 200 -seed 7 -state "$STATE_DIR/state.json" > "$STATE_DIR/resumed.out"
if ! diff <(grep -E '^(iterations|covered|solver calls|error kinds)' "$STATE_DIR/full.out") \
          <(grep -E '^(iterations|covered|solver calls|error kinds)' "$STATE_DIR/resumed.out"); then
  echo "kill-and-resume run diverged from the uninterrupted run" >&2
  exit 1
fi
"$BIN_DIR/compi" sched -targets skeleton -seeds 3,4 -iters 60 -state-dir "$STATE_DIR/store" > /dev/null
# CLI output goes to a file before grep reads it: `compi ... | grep -q`
# under pipefail fails whenever grep exits at its first match and compi
# dies of SIGPIPE on its next write.
"$BIN_DIR/compi" store -dir "$STATE_DIR/store" > "$STATE_DIR/store.out"
grep -q '^campaigns 2$' "$STATE_DIR/store.out" || {
  echo "compi store could not read back the state dir" >&2; exit 1; }
go test ./internal/sched -run 'TestKillResume|TestStoreBatchResumeEqualsFresh|TestStoreCrossBatchReuse|TestStoreWriteFailuresSurface' -count=1
rm -rf "$STATE_DIR"

echo "== store write failures are reported (compi sched on a broken store) =="
# A store whose campaign index cannot be written must fail the batch loudly:
# the summary names the failed writes and compi sched exits non-zero.
FAIL_DIR="$(mktemp -d)"
mkdir -p "$FAIL_DIR/store/index.json"
if "$BIN_DIR/compi" sched -targets skeleton -seeds 3 -iters 10 -state-dir "$FAIL_DIR/store" > "$FAIL_DIR/sched.out"; then
  echo "compi sched exited 0 although its store writes failed" >&2; exit 1
fi
grep -q 'store write failed' "$FAIL_DIR/sched.out" || {
  echo "compi sched did not report the failed store writes" >&2; exit 1; }
rm -rf "$FAIL_DIR"

echo "== compi report smoke (index queries on a two-target -schedules batch) =="
# The campaign index must answer "which setups found error X" and "coverage
# by target" without replaying: a batch spanning mworder and relay (both
# deadlocking in schedule space) feeds compi report, whose answers must name
# both targets; store reindex must restore the index after deletion.
REP_DIR="$(mktemp -d)"
"$BIN_DIR/compi" sched -targets mworder,relay -seeds 7 -iters 40 -np 3 -max-np 3 \
  -schedules -j 2 -state-dir "$REP_DIR/store" > /dev/null
"$BIN_DIR/compi" report -dir "$REP_DIR/store" > "$REP_DIR/report.out"
grep -q 'coverage by target' "$REP_DIR/report.out" || {
  echo "compi report printed no per-target rollup" >&2; exit 1; }
for tgt in mworder relay; do
  grep -q "$tgt" "$REP_DIR/report.out" || {
    echo "compi report missed target $tgt" >&2; exit 1; }
done
"$BIN_DIR/compi" report -dir "$REP_DIR/store" -error 'wait-for cycle' > "$REP_DIR/errors.out"
for tgt in mworder relay; do
  grep -q "$tgt" "$REP_DIR/errors.out" || {
    echo "compi report -error did not attribute the deadlock to $tgt" >&2; exit 1; }
done
rm "$REP_DIR/store/index.json"
"$BIN_DIR/compi" store reindex -dir "$REP_DIR/store" > "$REP_DIR/reindex.out"
grep -q '^reindexed' "$REP_DIR/reindex.out" || {
  echo "compi store reindex failed on a deleted index" >&2; exit 1; }
"$BIN_DIR/compi" report -dir "$REP_DIR/store" -error 'wait-for cycle' > "$REP_DIR/reindexed.out"
grep -q mworder "$REP_DIR/reindexed.out" || {
  echo "compi report broken after reindex" >&2; exit 1; }
rm -rf "$REP_DIR"

echo "== profiling determinism (compi drive -bin with and without -profile) =="
# Measurement must never perturb the campaign: a profiled drive of an
# out-of-process target must report the same iterations/coverage/solver/error
# summary as the unprofiled drive. (The core- and proto-layer versions of
# this pin are tests; this one exercises the actual CLI flag.)
PROF_DIR="$(mktemp -d)"
"$BIN_DIR/compi" drive -bin "$COMPI_TARGET_BIN" -iters 60 -seed 9 -- -target stencil \
  > "$PROF_DIR/plain.out"
"$BIN_DIR/compi" drive -bin "$COMPI_TARGET_BIN" -iters 60 -seed 9 -profile -- -target stencil \
  > "$PROF_DIR/profiled.out"
if ! diff <(grep -E '^(iterations|covered|solver calls|error kinds)' "$PROF_DIR/plain.out") \
          <(grep -E '^(iterations|covered|solver calls|error kinds)' "$PROF_DIR/profiled.out"); then
  echo "profiled drive diverged from the unprofiled drive" >&2
  exit 1
fi
grep -q '^bin ' "$PROF_DIR/profiled.out" || grep -qE '^execute|^solve' "$PROF_DIR/profiled.out" || {
  echo "profiled drive printed no profile table" >&2; exit 1; }
rm -rf "$PROF_DIR"

echo "== deadlock detection smoke (drive -schedules reports deadlock, not hang) =="
# The seeded match-order bug must classify as a deadlock with the wait-for
# cycle named — a hang report here means the detector regressed to the
# timeout watchdog.
SCHED_DIR="$(mktemp -d)"
"$BIN_DIR/compi" drive -bin "$COMPI_TARGET_BIN" -iters 60 -seed 7 -np 3 -max-np 3 \
  -schedules -- -target mworder > "$SCHED_DIR/drive.out"
grep -q '\[deadlock\] rank 0: deadlock: wait-for cycle 0->2->0' "$SCHED_DIR/drive.out" || {
  echo "drive -schedules did not report the named deadlock cycle" >&2; exit 1; }
if grep -q '\[hang\]' "$SCHED_DIR/drive.out"; then
  echo "drive -schedules reported a hang; deadlock detector regressed" >&2; exit 1
fi

echo "== schedule-space fingerprints (serve + 2 workers == sched -j2, -schedules) =="
# Match-order exploration must survive the fleet protocol unchanged: the
# coordinator/worker run and the in-process scheduler must report identical
# coverage and error lines (deadlock cycles included) with -schedules on.
"$BIN_DIR/compi" sched -targets mworder,relay -seeds 7 -iters 40 -np 3 -max-np 3 \
  -schedules -j 2 > "$SCHED_DIR/sched.out"
"$BIN_DIR/compi" serve -targets mworder,relay -seeds 7 -iters 40 -np 3 -max-np 3 \
  -schedules -addr-file "$SCHED_DIR/addr" > "$SCHED_DIR/fleet.out" 2> "$SCHED_DIR/fleet.err" &
SCHED_SERVE=$!
for _ in $(seq 1 100); do [ -s "$SCHED_DIR/addr" ] && break; sleep 0.1; done
[ -s "$SCHED_DIR/addr" ] || { echo "compi serve never published its address" >&2; exit 1; }
SCHED_ADDR="$(cat "$SCHED_DIR/addr")"
"$BIN_DIR/compi" work -connect "$SCHED_ADDR" -name ci-sw1 &
SW1=$!
"$BIN_DIR/compi" work -connect "$SCHED_ADDR" -name ci-sw2 &
SW2=$!
wait "$SW1" "$SW2" "$SCHED_SERVE"
if ! diff <(grep -E 'branches covered|^  \[' "$SCHED_DIR/fleet.out") \
          <(grep -E 'branches covered|^  \[' "$SCHED_DIR/sched.out"); then
  echo "-schedules fleet run diverged from the single-process scheduler" >&2
  exit 1
fi
rm -rf "$SCHED_DIR"

echo "== fleet determinism (serve + 2 workers == sched -j2) =="
# A coordinator leasing shards to two worker processes must land on the
# same per-target rollups and error lines as the in-process scheduler.
FLEET_DIR="$(mktemp -d)"
"$BIN_DIR/compi" serve -targets skeleton,stencil -seeds 5,6 -iters 40 \
  -addr-file "$FLEET_DIR/addr" > "$FLEET_DIR/fleet.out" 2> "$FLEET_DIR/fleet.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$FLEET_DIR/addr" ] && break; sleep 0.1; done
[ -s "$FLEET_DIR/addr" ] || { echo "compi serve never published its address" >&2; exit 1; }
ADDR="$(cat "$FLEET_DIR/addr")"
"$BIN_DIR/compi" work -connect "$ADDR" -name ci-w1 &
W1=$!
"$BIN_DIR/compi" work -connect "$ADDR" -name ci-w2 &
W2=$!
wait "$W1" "$W2" "$SERVE_PID"
"$BIN_DIR/compi" sched -targets skeleton,stencil -seeds 5,6 -iters 40 -j 2 > "$FLEET_DIR/sched.out"
if ! diff <(grep -E 'branches covered|^  \[' "$FLEET_DIR/fleet.out") \
          <(grep -E 'branches covered|^  \[' "$FLEET_DIR/sched.out"); then
  echo "fleet run diverged from the single-process scheduler" >&2
  exit 1
fi
rm -rf "$FLEET_DIR"

echo "== campaign benchmark golden checks (go -C bench test) =="
# The benchmark module's smoke run checks every workload's output against
# bench/golden.json, so a trajectory change fails here, not at benchmark time.
go -C bench test .

# compi-bench appends each benchmark line to a committed trajectory file and
# prints every metric's delta against the previous CI run.
go build -o "$BIN_DIR/compi-bench" ./cmd/compi-bench

echo "== benchmarks (sched speedup) =="
go test -run '^$' -bench 'BenchmarkSchedSpeedup' \
  -benchtime 5x . | "$BIN_DIR/compi-bench" -out BENCH_fleet.json
echo "wrote BENCH_fleet.json"

echo "== engine throughput trajectory (BENCH_engine.json) =="
# Iterations per second per core on the paper's two headline targets, with
# profiling off and on (the pair doubles as the disabled-profiler overhead
# pin), plus the 150-iteration SUSY-HMC campaign that runs past the DFS phase
# and the live-solve layer benchmark replaying that campaign's solver calls.
# The pipe-launch layer benchmark times one launch (~0.1 ms), so it runs 2000;
# the MPI runtime layer benchmark times one round trip, collective or launch
# (1-30 us), so it runs 100000 (at 20000 one binary's runs spread by up to
# 2.4x); the trace-recording layer benchmark records 2048 branch events per
# op (20-200 us), so it runs 2000.
{
  go test -run '^$' -bench 'BenchmarkEngine|BenchmarkSolveIncremental' -benchtime 5x .
  go test -run '^$' -bench 'BenchmarkPipeLaunch' -benchtime 2000x .
  go test -run '^$' -bench 'BenchmarkMPI' -benchtime 100000x .
  go test -run '^$' -bench 'BenchmarkTraceRecord' -benchtime 2000x .
} | "$BIN_DIR/compi-bench" -out BENCH_engine.json
echo "wrote BENCH_engine.json"

echo "== store service trajectory (BENCH_store.json) =="
# Index query latency (the compi report read path) and the cost of one
# campaign fold and one journal record, tracked run-over-run like the engine
# numbers. A checkpoint write takes 0.05-2 ms, so it runs 200.
{
  go test -run '^$' -bench 'BenchmarkStoreQuery' -benchtime 5x .
  go test -run '^$' -bench 'BenchmarkCheckpoint' -benchtime 200x .
} | "$BIN_DIR/compi-bench" -out BENCH_store.json
echo "wrote BENCH_store.json"

echo "CI green."
