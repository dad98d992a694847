#!/bin/sh
# CI entry point: build, vet, formatting, full test suite, a race run
# over the concurrent layers (the analysis worker pool and parallel
# footprint resolution in internal/core, the intern table and bitset
# footprints in internal/linuxapi/footprint/metrics, the
# snapshot-swap/cache/analysis-pool, sharded byte-cache, hotset and
# singleflight paths in internal/service, the byte read path in
# internal/httpapi, the snapshot file format in internal/snapshot, the
# replica front proxy in internal/proxy, the coordinator/worker fleet
# in internal/fleet, the load drivers in internal/loadgen, the
# async job tier in internal/jobs and apiworker's assembled handler in
# cmd/apiworker, the concurrent verdict-matrix
# build in internal/stubplan, and the lock-free histogram and metrics
# writer in internal/obs), ten seconds of the fuzzing engine on each of
# the ELF reader (elfx.FuzzOpen), the x86 decoder (x86.FuzzDecode), the
# snapshot reader (snapshot.FuzzDecode, which reads files into the heap
# and must leave the intern table untouched on rejection), query
# canonicalization (service.FuzzCanonicalQuery), job spool recovery
# (jobs.FuzzSpoolRecord), analysis-cache summary and verdict records
# (anacache.FuzzRecord, which must also leave the intern table
# untouched), the APT Packages index (apt.FuzzParseIndex), the popcon
# survey (popcon.FuzzParse), fleet workers' shard responses
# (fleet.FuzzShardResponse, which must reject with a typed error and
# leave the intern table untouched) and the shard requests a worker
# reads (fleet.FuzzShardRequest, which must reject with a typed error
# and accept only what re-encodes to an equal request) and the job
# tier's one HTTP surface (httpapi.FuzzJobRoutes over the job-only
# handler apiworker mounts: every non-2xx is the error envelope with the
# echoed request ID, and an accepted job records a valid request ID and
# the canonical form of its params) and the emulator's step budget
# (emu.FuzzEmulatorBudget over fuzzed .text bytes and budgets: a run
# under budget k takes exactly min(k, S) steps of a run that reaches S,
# keeps the events before step k, and replays as it runs) beyond the seeds
# the test run replays, with minimization capped at one second so the
# ten seconds go to new inputs, a two-worker end-to-end fleet smoke test, a job-tier
# smoke test (spool persistence across kill -9), an end-to-end load
# smoke test that gates the serving SLO, the ramp (zero 5xx to the
# ceiling) and an in-process read-path throughput ceiling that meets
# the SLO, a snapshot round-trip equivalence smoke test, a
# replicated-serving smoke test (publish to two replicas, kill one
# under load behind the proxy, zero 5xx), a corpus-evolution smoke
# test (byte-stable 3-generation series rebuild through a shared
# analysis cache, live trend queries), and a stub-aware planning smoke
# test (byte-stable plan, golden step ordering, warm serve with zero
# emulator runs).
# The test run includes the crash tests of internal/atomicfile, the one
# temp-file-then-rename write every owner of files on disk calls: they
# kill the job spool, the snapshot directory and the analysis cache's
# summary and verdict records before each step of a write and check
# what a restart recovers, and pin the fsync order of durable writes.
# The benchmark module (perfbench/, its own go.mod) is vetted and tested
# too, so a signature change that breaks the benchmark's build fails
# here.
# Run from the repository root; used by .github/workflows/ci.yml and
# fine to run locally.
set -eu

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    gofmt -d . >&2
    exit 1
fi

echo "== go build"
go build ./...

echo "== go vet"
go vet ./...

echo "== go test"
go test ./...

echo "== perfbench module: go vet, go test"
(cd perfbench && GOWORK=off go vet ./... && GOWORK=off go test ./...)

echo "== go test -shuffle (order-independence)"
go test -count=1 -shuffle=on ./...

echo "== go test -race (pipeline, intern/bitset/metrics, service, HTTP API, analysis cache, fleet, loadgen, jobs, apiworker, snapshot, proxy, evolution, stubplan, obs)"
go test -race ./internal/core ./internal/linuxapi ./internal/footprint ./internal/metrics \
    ./internal/service ./internal/httpapi ./internal/anacache ./internal/fleet \
    ./internal/loadgen ./internal/jobs ./cmd/apiworker ./internal/snapshot ./internal/proxy \
    ./internal/evolution ./internal/stubplan ./internal/obs

echo "== go test -fuzz (ELF reader, x86 decoder, snapshot reader, query canonicalization, spool records, analysis-cache records, APT index, popcon survey, fleet shard responses and requests, job routes, emulator step budget; 10s each)"
go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s -fuzzminimizetime 1s ./internal/elfx
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/x86
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/snapshot
go test -run '^$' -fuzz '^FuzzCanonicalQuery$' -fuzztime 10s -fuzzminimizetime 1s ./internal/service
go test -run '^$' -fuzz '^FuzzSpoolRecord$' -fuzztime 10s -fuzzminimizetime 1s ./internal/jobs
go test -run '^$' -fuzz '^FuzzRecord$' -fuzztime 10s -fuzzminimizetime 1s ./internal/anacache
go test -run '^$' -fuzz '^FuzzParseIndex$' -fuzztime 10s -fuzzminimizetime 1s ./internal/apt
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s -fuzzminimizetime 1s ./internal/popcon
go test -run '^$' -fuzz '^FuzzShardResponse$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fleet
go test -run '^$' -fuzz '^FuzzShardRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/fleet
go test -run '^$' -fuzz '^FuzzJobRoutes$' -fuzztime 10s -fuzzminimizetime 1s ./internal/httpapi
go test -run '^$' -fuzz '^FuzzEmulatorBudget$' -fuzztime 10s -fuzzminimizetime 1s ./internal/emu

echo "== fleet smoke test (two-worker end-to-end)"
sh scripts/fleet_smoke.sh

echo "== jobs smoke test (spool persistence, kill -9 resume, dedupe)"
sh scripts/jobs_smoke.sh

echo "== load smoke test (apiserved + apiload + serving SLO gate)"
sh scripts/load_smoke.sh

echo "== snapshot smoke test (snapshot file round-trip equivalence)"
sh scripts/snapshot_smoke.sh

echo "== replica smoke test (publish, proxy failover under kill -9, zero 5xx)"
sh scripts/replica_smoke.sh

echo "== evolution smoke test (byte-stable series rebuild, warm cache hits, live trends)"
sh scripts/evolution_smoke.sh

echo "== stubplan smoke test (byte-stable plan, golden ordering, warm serve with zero emulations)"
sh scripts/stubplan_smoke.sh

echo "CI OK"
