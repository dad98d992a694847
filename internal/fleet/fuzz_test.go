package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// fuzzRequest is the request every FuzzShardResponse input answers: one
// library and one executable.
var fuzzRequest = ShardRequest{Shard: 3, Files: []ShardFile{
	{Pkg: "fuzz", Path: "/usr/lib/libfuzz.so.1", Lib: true},
	{Pkg: "fuzz", Path: "/usr/bin/fuzz"},
}}

// FuzzShardResponse reads arbitrary bytes as a worker's answer to
// fuzzRequest, the way the coordinator reads every response. It must
// fail closed: nothing may panic, every rejection is an error wrapping
// ErrCorruptResponse, and neither a rejected nor an accepted response
// may grow the process's API intern table. An accepted response's
// summaries are registered and resolved as the study resolves them.
// Seeds live in testdata/fuzz/FuzzShardResponse.
func FuzzShardResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		universe := linuxapi.InternUniverse()
		req := fuzzRequest
		resp, err := decodeResponse(bytes.NewReader(raw), &req)
		switch {
		case err != nil && !errors.Is(err, ErrCorruptResponse):
			t.Fatalf("rejection %v does not wrap ErrCorruptResponse: %q", err, raw)
		case err != nil && resp != nil:
			t.Fatalf("rejected response returned alongside %v", err)
		case err == nil:
			r := footprint.NewResolver()
			for i, res := range resp.Results {
				if res.Summary != nil && req.Files[i].Lib {
					r.AddSummary(res.Summary)
				}
			}
			for _, res := range resp.Results {
				if res.Summary != nil {
					r.FootprintBits(res.Summary)
				}
			}
		}
		if n := linuxapi.InternUniverse(); n != universe {
			t.Fatalf("reading a response grew the intern table from %d to %d (err %v): %q", universe, n, err, raw)
		}
	})
}

// FuzzShardRequest reads arbitrary bytes as a shard request, the way a
// worker reads every request, on its HTTP endpoint and as job params. It
// must fail closed: nothing may panic, every rejection is an error
// wrapping ErrMalformedRequest, and an accepted request re-encodes to
// bytes that read back as an equal request. Seeds live in
// testdata/fuzz/FuzzShardRequest.
func FuzzShardRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		req, err := decodeRequest(raw)
		if err != nil {
			if !errors.Is(err, ErrMalformedRequest) || req != nil {
				t.Fatalf("rejection %v (request %v) does not wrap ErrMalformedRequest: %q", err, req, raw)
			}
			return
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeRequest(again)
		if err != nil || !reflect.DeepEqual(back, req) {
			t.Fatalf("accepted %q; re-encoded as %q it reads back as %+v, %v", raw, again, back, err)
		}
	})
}

// seeds returns the inputs of a fuzz target's seed corpus by file name.
func seeds(t *testing.T, target string) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		text, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		out[e.Name()] = []byte(raw)
	}
	return out
}

// The seeds are the cases the response check exists for: the coordinator
// must accept exactly the ones named valid.
func TestShardResponseSeeds(t *testing.T) {
	for name, raw := range seeds(t, "FuzzShardResponse") {
		req := fuzzRequest
		_, err := decodeResponse(bytes.NewReader(raw), &req)
		if valid := strings.HasPrefix(name, "valid"); (err == nil) != valid {
			t.Errorf("%s: accepted %v, want %v (%v)", name, err == nil, valid, err)
		}
	}
}

// A worker accepts exactly the request seeds named valid.
func TestShardRequestSeeds(t *testing.T) {
	for name, raw := range seeds(t, "FuzzShardRequest") {
		_, err := decodeRequest(raw)
		if valid := strings.HasPrefix(name, "valid"); (err == nil) != valid {
			t.Errorf("%s: accepted %v, want %v (%v)", name, err == nil, valid, err)
		}
	}
}
