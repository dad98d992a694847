#!/bin/sh
# End-to-end fleet smoke test: builds the real binaries, generates an
# on-disk corpus, starts two apiworker processes on loopback ports, runs
# the same study once in-process and once through the fleet, and requires
# byte-identical output with zero local-fallback shards. It then drives
# the first worker's job routes through the apijobs CLI: a shard-analyze
# job over one corpus ELF runs to a result carrying a summary, a job
# whose shard has no files ends failed (apijobs wait exits non-zero and
# the job is listed under -state failed), and the status of an unknown
# job exits 1 with the error envelope's message. This is the distributed
# path's integration gate — everything above internal/fleet's unit
# tests: flag plumbing, real HTTP listeners, process lifecycle.
# Run from the repository root; used by scripts/ci.sh and fine to run
# locally.
set -eu

. "$(dirname "$0")/lib.sh"
smoke_init

echo "== fleet smoke: build"
go build -o "$tmp/apiworker" ./cmd/apiworker
go build -o "$tmp/apistudy" ./cmd/apistudy
go build -o "$tmp/corpusgen" ./cmd/corpusgen
go build -o "$tmp/apijobs" ./cmd/apijobs

echo "== fleet smoke: corpus"
"$tmp/corpusgen" -out "$tmp/corpus" -packages 60 -seed 17 -installations 100000

w1=http://127.0.0.1:18841
w2=http://127.0.0.1:18842
echo "== fleet smoke: workers ($w1, $w2)"
"$tmp/apiworker" -addr 127.0.0.1:18841 -quiet >"$tmp/w1.log" 2>&1 &
smoke_track $!
"$tmp/apiworker" -addr 127.0.0.1:18842 -quiet >"$tmp/w2.log" 2>&1 &
smoke_track $!

for url in $w1 $w2; do
    i=0
    until "$tmp/apiworker" -check "$url" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -ge 50 ]; then
            echo "fleet smoke: worker $url never became healthy" >&2
            exit 1
        fi
        sleep 0.1
    done
done

echo "== fleet smoke: local run"
"$tmp/apistudy" -corpus "$tmp/corpus" >"$tmp/local.txt"

echo "== fleet smoke: fleet run"
"$tmp/apistudy" -corpus "$tmp/corpus" -workers "$w1,$w2" -v \
    >"$tmp/fleet.txt" 2>"$tmp/fleet.log"

if ! cmp -s "$tmp/local.txt" "$tmp/fleet.txt"; then
    echo "fleet smoke: fleet output differs from local output" >&2
    diff "$tmp/local.txt" "$tmp/fleet.txt" | head -20 >&2 || true
    exit 1
fi
if ! grep -q 'local_fallback=0' "$tmp/fleet.log"; then
    echo "fleet smoke: shards fell back to local analysis:" >&2
    cat "$tmp/fleet.log" >&2
    exit 1
fi
if ! grep -q 'dispatched=' "$tmp/fleet.log"; then
    echo "fleet smoke: no fleet stats logged:" >&2
    cat "$tmp/fleet.log" >&2
    exit 1
fi

wjobs() { "$tmp/apijobs" -server "$w1" -timeout 60s "$@"; }

echo "== fleet smoke: shard-analyze job on $w1"
elf=$(find "$tmp/corpus/pool" -type f -path '*/usr/bin/*' | sort | head -1)
if [ -z "$elf" ]; then
    echo "fleet smoke: no ELF in generated corpus" >&2
    exit 1
fi
printf '{"shard":0,"files":[{"pkg":"smoke","path":"/usr/bin/%s","data":"%s"}]}' \
    "$(basename "$elf")" "$(base64 -w0 "$elf")" >"$tmp/shard.json"
id=$(wjobs -id-only submit shard-analyze - <"$tmp/shard.json")
wjobs wait "$id" >/dev/null
if ! wjobs result "$id" | grep -q '"summary"'; then
    echo "fleet smoke: shard-analyze result carries no summary" >&2
    wjobs result "$id" >&2 || true
    exit 1
fi

echo "== fleet smoke: a shard with no files fails"
bad=$(wjobs -id-only submit shard-analyze '{"files":[]}')
if wjobs wait "$bad" >/dev/null 2>&1; then
    echo "fleet smoke: job $bad with no files did not fail" >&2
    exit 1
fi
if ! wjobs -state failed list | grep -q "\"$bad\""; then
    echo "fleet smoke: job $bad missing from the failed list" >&2
    wjobs -state failed list >&2 || true
    exit 1
fi

echo "== fleet smoke: status of an unknown job"
rc=0
wjobs status j-0000000000000000 >/dev/null 2>"$tmp/unknown.err" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q 'jobs: unknown job' "$tmp/unknown.err"; then
    echo "fleet smoke: unknown job status exited $rc, want 1 with the envelope's error:" >&2
    cat "$tmp/unknown.err" >&2
    exit 1
fi

echo "fleet smoke OK: outputs byte-identical, all shards served remotely, worker job routes answer"
