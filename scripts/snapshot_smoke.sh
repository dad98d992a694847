#!/bin/sh
# Snapshot round-trip equivalence gate: builds the real binaries,
# writes a snapshot of an on-disk corpus with apistudy -snapshot-out,
# then serves the same corpus twice — once analyzed in process
# (apiserved -corpus) and once restored from the snapshot file
# (apiserved -snapshot) — and requires both servers to report the same
# fingerprint, generation and package count and to answer
# /v1/completeness, /v1/importance and /v1/path byte-identically. This
# is the snapshot format's integration gate above internal/snapshot's
# unit tests: flag plumbing, the heap read path in a real process, and
# the service swap at the file's generation.
# Run from the repository root; used by scripts/ci.sh and fine to run
# locally.
set -eu

. "$(dirname "$0")/lib.sh"
smoke_init

echo "== snapshot smoke: build"
go build -o "$tmp/corpusgen" ./cmd/corpusgen
go build -o "$tmp/apistudy" ./cmd/apistudy
go build -o "$tmp/apiserved" ./cmd/apiserved
go build -o "$tmp/apiload" ./cmd/apiload

echo "== snapshot smoke: corpus + snapshot file"
"$tmp/corpusgen" -out "$tmp/corpus" -packages 60 -seed 17 -installations 100000
"$tmp/apistudy" -corpus "$tmp/corpus" -experiment none \
    -snapshot-out "$tmp/study.snap" 2>"$tmp/apistudy.log"

ref=http://127.0.0.1:18871
snap=http://127.0.0.1:18872
echo "== snapshot smoke: apiserved -corpus ($ref) vs -snapshot ($snap)"
"$tmp/apiserved" -addr 127.0.0.1:18871 -corpus "$tmp/corpus" -quiet \
    >"$tmp/ref.log" 2>&1 &
smoke_track $!
"$tmp/apiserved" -addr 127.0.0.1:18872 -snapshot "$tmp/study.snap" -quiet \
    >"$tmp/snap.log" 2>&1 &
smoke_track $!

# identity: fingerprint, generation, package counts from /healthz
# (volatile fields — source, uptime, load time — stripped).
for side in ref snap; do
    eval url=\$$side
    "$tmp/apiload" -target "$url" -wait-healthy 30s -fetch /healthz |
        grep -E '"(fingerprint|generation|packages|executables)"' >"$tmp/$side.identity"
done
if ! cmp -s "$tmp/ref.identity" "$tmp/snap.identity"; then
    echo "snapshot smoke: identity mismatch between corpus and snapshot server:" >&2
    diff "$tmp/ref.identity" "$tmp/snap.identity" >&2 || true
    exit 1
fi

echo "== snapshot smoke: query equivalence"
for side in ref snap; do
    eval url=\$$side
    "$tmp/apiload" -target "$url" -fetch /v1/completeness \
        -fetch-body '{"syscalls":["read","write","open","close","mmap","futex"]}' \
        >"$tmp/$side.completeness"
    "$tmp/apiload" -target "$url" -fetch /v1/importance/open >"$tmp/$side.importance"
    "$tmp/apiload" -target "$url" -fetch '/v1/path?n=40' >"$tmp/$side.path"
done
for q in completeness importance path; do
    if ! cmp -s "$tmp/ref.$q" "$tmp/snap.$q"; then
        echo "snapshot smoke: /v1/$q differs between corpus and snapshot server:" >&2
        diff "$tmp/ref.$q" "$tmp/snap.$q" | head -20 >&2 || true
        exit 1
    fi
done

echo "snapshot smoke OK: snapshot-served answers byte-identical to in-process rebuild"
