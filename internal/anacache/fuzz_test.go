package anacache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// fuzzBinary is the binary whose records FuzzRecord replaces.
var fuzzBinary = []byte("\x7fELF fuzzed record")

// FuzzRecord writes arbitrary bytes as both the summary record and the
// verdict record of one binary, then looks each up once in a fresh
// cache. Records are read back from disk, so lookups must fail closed:
// nothing may panic; a hit needs an envelope whose tag and key match and
// whose payload is not null; anything else is exactly one counted miss;
// and a hit summary, registered as a library with a footprint.Resolver
// and resolved both directly and through an importer, must not panic or
// grow the process's API intern table. Seeds live in
// testdata/fuzz/FuzzRecord.
func FuzzRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		universe := linuxapi.InternUniverse()
		c := mustOpen(t, t.TempDir(), footprint.Options{})
		key := Key(fuzzBinary)
		for _, p := range []string{c.path(key), c.verdictPath(key)} {
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// What a hit requires, read with the same decoder.
		var env struct {
			Tag, Key         string
			Summary, Verdict json.RawMessage
		}
		valid := json.Unmarshal(raw, &env) == nil && env.Tag == c.tag && env.Key == key
		present := func(p json.RawMessage) bool { return len(p) > 0 && string(p) != "null" }

		sum, hit := c.Get(fuzzBinary)
		st := c.Stats()
		if hit && (!valid || !present(env.Summary) || sum == nil) {
			t.Fatalf("summary hit on an invalid record: %q", raw)
		}
		if !hit && (st.Misses != 1 || st.Hits != 0) {
			t.Fatalf("summary miss counted as %+v", st)
		}
		var v any
		vhit := c.GetVerdicts(key, c.tag, &v)
		st = c.Stats()
		if vhit && (!valid || !present(env.Verdict)) {
			t.Fatalf("verdict hit on an invalid record: %q", raw)
		}
		if !vhit && (st.VerdictMisses != 1 || st.VerdictHits != 0) {
			t.Fatalf("verdict miss counted as %+v", st)
		}
		if !hit {
			return
		}
		r := footprint.NewResolver()
		r.AddSummary(sum)
		r.FootprintBits(sum)
		importer := &footprint.Summary{Path: "/usr/bin/importer", Needed: []string{sum.Soname, sum.Path},
			Funcs: []footprint.FuncSummary{{Name: "main"}}}
		for _, fn := range sum.Funcs {
			importer.Funcs[0].Imports = append(importer.Funcs[0].Imports, fn.Name)
		}
		r.FootprintBits(importer)
		if n := linuxapi.InternUniverse(); n != universe {
			t.Fatalf("resolving a hit summary grew the intern table from %d to %d: %q", universe, n, raw)
		}
	})
}
