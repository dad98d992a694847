#!/bin/sh
# Pipeline benchmark + regression gate: runs the cold/warm/incremental
# study-load benchmark, the fleet-vs-local coordination benchmark, the
# map-vs-bitset aggregation benchmark, the snapshot open-vs-rebuild
# benchmark, the evolution series cold-vs-warm benchmark, the
# stub-aware plan cold-vs-warm benchmark (emulator-driven verdict
# matrix vs cached verdict replay, plus the five plans alone over the
# warm matrix, recorded but not gated), a cold matrix build over
# CodeBulk binaries (time and allocation, recorded but not gated), and
# the parallel query hot-path
# benchmark (computing every answer vs the encoded byte cache + hotset
# in the same run, with -benchmem), writes BENCH_pipeline.json (the committed artifact
# documenting what the analysis cache buys, what fleet coordination
# costs, what the dense bitset representation buys the aggregation
# stage, what the columnar snapshot format buys a replica swap, what
# cross-generation cache carry-forward buys a series rebuild, what the
# verdict cache buys a stub-aware plan build, and what the encoded read
# path buys steady-state queries), and fails when the warm-over-cold,
# map-over-bitset, rebuild-over-open, evolution warm-over-cold,
# stubplan cold-over-warm, or compute-over-hot speedup drops below the
# floors benchgate enforces (2x / 2x / 10x / 2x / 2x / 2x by default;
# the fleet rows are informational). Run from the repository root; used by
# the `bench` job in .github/workflows/ci.yml and fine to run locally.
set -eu

# The heavy pipeline benchmarks run one iteration (their unit of work is
# a whole study build); the per-request hot-path benchmark runs many so
# best-ns/op is a steady-state number, not a single-op fluke. The
# aggregation benchmark runs twenty iterations in its own invocation: a
# single ~50 ms iteration lands on or off a collection depending on the
# heap the benchmarks before it leave. The CodeBulk matrix build (cold,
# over 200 packages whose binaries carry 24 KiB of filler each) runs with
# -benchmem and is recorded, not gated.
{
    go test -run '^$' -bench 'BenchmarkStudyColdVsWarm$|BenchmarkStudyFleetVsLocal$|BenchmarkSnapshotOpenVsRebuild$|BenchmarkEvolutionSeriesColdVsWarm$|BenchmarkStubPlanColdVsWarm$' -benchtime=1x -count=3 . ./internal/evolution ./internal/stubplan
    go test -run '^$' -bench 'BenchmarkAggregateMetrics$' -benchtime=20x -count=3 .
    go test -run '^$' -bench 'BenchmarkBuildMatrixCodeBulk$' -benchtime=1x -benchmem -count=3 ./internal/stubplan
    go test -run '^$' -bench 'BenchmarkQueryHotPath$' -benchtime=2000x -benchmem -count=3 ./internal/service
} | go run ./cmd/benchgate -out BENCH_pipeline.json "$@"
