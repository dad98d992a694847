#!/bin/sh
# End-to-end load smoke test: builds the real binaries, starts apiserved
# on a loopback port with admission control, the async job tier and a
# pprof listener enabled, then gates the serving path three ways:
#
#   1. a short fixed-rate open-loop apiload pass (including a jobs
#      slice — submit + follow to done — and a stub-aware plan slice
#      over a pre-warmed verdict cache) — accepted-request p99 within
#      the SLO, zero 5xx, zero transport errors;
#   2. a ramp-to-ceiling pass stepping the arrival rate until the SLO
#      breaks, with a CPU profile captured over the ramp window via the
#      pprof listener — every stage must shed (429) rather than fail
#      (5xx), and at least one stage must pass;
#   3. an in-process max-throughput ceiling search over the read path
#      — at least one stage must meet the p99 SLO (max_rps_under_slo in
#      the artifact, recorded, not compared with an earlier run).
#
# benchgate -serving folds all three into the committed artifact. This
# is the serving path's integration gate above internal/loadgen's and
# internal/httpapi's unit tests: flag plumbing, a real listener, the
# live /v1/path workload bootstrap, report emission, and the CI
# artifact.
# Run from the repository root; used by scripts/ci.sh and fine to run
# locally. OUT overrides where the gated artifact lands (default: a
# temp file, discarded); PROFILE_OUT saves the ramp CPU profile for the
# CI artifact upload (default: discarded with the temp dir).
set -eu

. "$(dirname "$0")/lib.sh"
smoke_init

out=${OUT:-"$tmp/BENCH_serving.json"}

echo "== load smoke: build"
go build -o "$tmp/apiserved" ./cmd/apiserved
go build -o "$tmp/apiload" ./cmd/apiload
go build -o "$tmp/apiplan" ./cmd/apiplan
go build -o "$tmp/benchgate" ./cmd/benchgate

# Pre-warm the verdict cache offline: the stub-aware plan endpoint is in
# the load mix, and its first query of a generation builds the
# emulator-driven verdict matrix — tens of seconds cold on one core, far
# beyond any request SLO. apiplan populates the shared analysis cache so
# the server's matrix build replays verdicts from disk in a moment.
echo "== load smoke: apiplan pre-warm of the verdict cache"
"$tmp/apiplan" -packages 60 -seed 17 -cache-dir "$tmp/anacache" \
    -system graphene >/dev/null 2>"$tmp/apiplan.log" || {
    echo "load smoke: apiplan pre-warm failed:" >&2
    cat "$tmp/apiplan.log" >&2
    exit 1
}

addr=127.0.0.1:18851
pprof=127.0.0.1:18852
echo "== load smoke: apiserved on $addr (2-generation release series, pprof on $pprof)"
"$tmp/apiserved" -addr "$addr" -packages 60 -seed 17 \
    -cache-dir "$tmp/anacache" \
    -max-inflight 64 -max-queue 128 -queue-wait 500ms \
    -series-dir "$tmp/series" -series-gens 2 \
    -spool-dir "$tmp/spool" -job-workers 2 \
    -pprof-addr "$pprof" -quiet \
    >"$tmp/apiserved.log" 2>&1 &
smoke_track $!

# One plan fetch before load: the warm matrix build runs once off the
# request path's budget and publishes every system's plan into the
# hotset, so plan traffic below is all lock-free hits.
echo "== load smoke: warm plan matrix over the cache"
"$tmp/apiload" -target "http://$addr" -wait-healthy 30s \
    -fetch "/v1/compat/plan?system=graphene" \
    >/dev/null 2>"$tmp/planwarm.log" || {
    echo "load smoke: plan warm fetch failed:" >&2
    cat "$tmp/planwarm.log" >&2
    cat "$tmp/apiserved.log" >&2
    exit 1
}

echo "== load smoke: apiload (open loop, 80 rps, jobs, trends and plans in the mix)"
"$tmp/apiload" -target "http://$addr" -wait-healthy 30s \
    -mode open -rps 80 -duration 3s -warmup 1s \
    -mix importance=26,footprint=21,completeness=19,suggest=14,analyze=5,jobs=5,trends=5,plan=5 \
    -packages 60 -seed 17 -load-seed 42 \
    -out "$tmp/report.json" 2>"$tmp/apiload.log" || {
    echo "load smoke: apiload failed:" >&2
    cat "$tmp/apiload.log" >&2
    cat "$tmp/apiserved.log" >&2
    exit 1
}

echo "== load smoke: ramp to ceiling (CPU profile over the ramp window)"
# The profile fetch runs beside the ramp: the pprof listener has no
# /healthz, so the probe is skipped (-wait-healthy 0) and the fetch
# blocks for the requested seconds while the ramp drives load.
"$tmp/apiload" -target "http://$pprof" -wait-healthy 0 \
    -fetch "/debug/pprof/profile?seconds=6" \
    >"$tmp/cpu.pprof" 2>"$tmp/profile.log" &
profile_pid=$!
"$tmp/apiload" -target "http://$addr" -wait-healthy 10s \
    -ramp 40:60:160 -slo-p99 500 -duration 1500ms -warmup 500ms \
    -mix importance=28,footprint=23,completeness=19,suggest=15,path=10,plan=5 \
    -packages 60 -seed 17 -load-seed 42 \
    -out "$tmp/ramp.json" 2>"$tmp/ramp.log" || {
    echo "load smoke: ramp failed:" >&2
    cat "$tmp/ramp.log" >&2
    exit 1
}
wait "$profile_pid" || {
    echo "load smoke: CPU profile fetch failed:" >&2
    cat "$tmp/profile.log" >&2
    exit 1
}
if [ -n "${PROFILE_OUT:-}" ]; then
    cp "$tmp/cpu.pprof" "$PROFILE_OUT"
    echo "load smoke: ramp CPU profile saved to $PROFILE_OUT"
fi

echo "== load smoke: read-path throughput ceiling (in-process)"
# Explicit plan-free mix: the ceiling service is built in-process with
# no verdict cache, so a plan request would cold-build the matrix inside
# a one-second measurement stage.
"$tmp/apiload" -ceiling 1,2,4,8 -packages 60 -seed 17 \
    -mix importance=30,footprint=25,completeness=20,suggest=15,path=10 \
    -duration 1s -warmup 300ms -slo-p99 200 -load-seed 42 \
    -out "$tmp/ceilings.json" 2>"$tmp/ceiling.log" || {
    echo "load smoke: ceiling run failed:" >&2
    cat "$tmp/ceiling.log" >&2
    exit 1
}

echo "== load smoke: benchgate -serving"
"$tmp/benchgate" -serving "$tmp/report.json" -max-p99-ms 500 \
    -ramp "$tmp/ramp.json" \
    -ceilings "$tmp/ceilings.json" \
    -out "$out" || {
    echo "load smoke: serving gate failed; apiserved log:" >&2
    tail -5 "$tmp/apiserved.log" >&2
    tail -5 "$tmp/ceiling.log" >&2
    exit 1
}

echo "load smoke OK: SLO held at 80 rps, ramp shed cleanly, read-path ceiling met the SLO"
