#!/bin/sh
# Stub-aware planning smoke test: builds the implement-vs-stub plan for
# the demo corpus twice through one shared verdict cache and proves the
# emulator-driven fault-injection tier end to end:
#
#   1. the cold apiplan build emulates (emulations > 0 and steps > 0
#      executed emulator instructions on stderr) and the warm rebuild
#      replays every verdict from the cache (emulations=0, steps=0) —
#      and both emit byte-identical plan JSON;
#   2. the plan's step ordering (api + action per step) matches the
#      committed golden, so a policy or ordering change cannot land
#      silently;
#   3. apiserved over the same cache serves /v1/compat/plan with the
#      same ordering, reports the matrix as warm in /metrics
#      (apiserved_stubplan_emulations_total 0, verdict cache hits), and
#      answers every modeled system.
#
# This is the stubplan tier's integration gate above
# internal/stubplan's and internal/service's unit tests: CLI flag
# plumbing, cross-process verdict-cache reuse, plan byte-determinism,
# and the live HTTP plan surface. Run from the repository root; used by
# scripts/ci.sh and fine to run locally.
set -eu

. "$(dirname "$0")/lib.sh"
smoke_init

pkgs=16
seed=41
sys=freebsd-emu
golden="$(dirname "$0")/stubplan_golden.txt"

echo "== stubplan smoke: build"
go build -o "$tmp/apiplan" ./cmd/apiplan
go build -o "$tmp/apiserved" ./cmd/apiserved

echo "== stubplan smoke: cold plan build (demo corpus, $pkgs packages)"
"$tmp/apiplan" -packages $pkgs -seed $seed -cache-dir "$tmp/anacache" \
    -system $sys >"$tmp/plan_cold.json" 2>"$tmp/cold.log"
cat "$tmp/cold.log"
grep -q ' emulations=0 ' "$tmp/cold.log" && {
    echo "stubplan smoke: cold build performed no emulations" >&2
    exit 1
}
grep -q ' steps=[1-9][0-9]* ' "$tmp/cold.log" || {
    echo "stubplan smoke: cold build executed no emulator instructions" >&2
    exit 1
}

echo "== stubplan smoke: warm rebuild (shared cache, zero emulations)"
"$tmp/apiplan" -packages $pkgs -seed $seed -cache-dir "$tmp/anacache" \
    -system $sys >"$tmp/plan_warm.json" 2>"$tmp/warm.log"
cat "$tmp/warm.log"
grep -q ' emulations=0 ' "$tmp/warm.log" || {
    echo "stubplan smoke: warm rebuild still emulated:" >&2
    cat "$tmp/warm.log" >&2
    exit 1
}
grep -q ' steps=0 ' "$tmp/warm.log" || {
    echo "stubplan smoke: warm rebuild executed emulator instructions:" >&2
    cat "$tmp/warm.log" >&2
    exit 1
}
cmp "$tmp/plan_cold.json" "$tmp/plan_warm.json" || {
    echo "stubplan smoke: plan JSON differs between cold and warm build" >&2
    exit 1
}

echo "== stubplan smoke: step ordering vs golden"
grep -E '"(api|action)":' "$tmp/plan_cold.json" | tr -d ' ",' >"$tmp/ordering.txt"
diff -u "$golden" "$tmp/ordering.txt" || {
    echo "stubplan smoke: plan ordering diverged from $golden" >&2
    echo "(if the policy change is intentional, regenerate the golden with:" >&2
    echo "  go run ./cmd/apiplan -packages $pkgs -seed $seed -system $sys | grep -E '\"(api|action)\":' | tr -d ' \",' > $golden)" >&2
    exit 1
}

addr=127.0.0.1:18871
echo "== stubplan smoke: apiserved on $addr over the warm cache"
"$tmp/apiserved" -addr "$addr" -packages $pkgs -seed $seed \
    -cache-dir "$tmp/anacache" -quiet \
    >"$tmp/apiserved.log" 2>&1 &
smoke_track $!

for i in $(seq 1 60); do
    if curl -sf "http://$addr/healthz" >/dev/null 2>&1; then break; fi
    [ "$i" -eq 60 ] && { echo "apiserved never became healthy" >&2; cat "$tmp/apiserved.log" >&2; exit 1; }
    sleep 0.5
done

echo "== stubplan smoke: live plan queries"
curl -sf "http://$addr/v1/compat/plan?system=$sys" >"$tmp/served.json" || {
    echo "stubplan smoke: /v1/compat/plan failed" >&2
    cat "$tmp/apiserved.log" >&2
    exit 1
}
grep -q '"system": "FreeBSD-emu"' "$tmp/served.json" || {
    echo "stubplan smoke: served plan names the wrong system" >&2
    exit 1
}
grep -E '"(api|action)":' "$tmp/served.json" | tr -d ' ",' >"$tmp/served_ordering.txt"
cmp "$golden" "$tmp/served_ordering.txt" || {
    echo "stubplan smoke: served plan ordering differs from the golden" >&2
    exit 1
}
for name in user-mode-linux l4linux graphene graphene%2Bsched; do
    curl -sf "http://$addr/v1/compat/plan?system=$name" >/dev/null || {
        echo "stubplan smoke: plan query for $name failed" >&2
        exit 1
    }
done

echo "== stubplan smoke: warm matrix counters"
curl -sf "http://$addr/metrics" >"$tmp/metrics.txt"
grep -q '^apiserved_stubplan_enabled 1$' "$tmp/metrics.txt" || {
    echo "stubplan smoke: matrix not resident in /metrics" >&2
    cat "$tmp/metrics.txt" >&2
    exit 1
}
grep -q '^apiserved_stubplan_emulations_total 0$' "$tmp/metrics.txt" || {
    echo "stubplan smoke: served matrix build emulated instead of replaying the cache:" >&2
    grep '^apiserved_stubplan' "$tmp/metrics.txt" >&2
    exit 1
}
grep -q '^apiserved_stubplan_verdict_cache_total{outcome="hit"} 0$' "$tmp/metrics.txt" && {
    echo "stubplan smoke: served matrix build recorded zero verdict-cache hits" >&2
    exit 1
}

echo "stubplan smoke OK: byte-stable plan, golden ordering, warm serve with zero emulations"
