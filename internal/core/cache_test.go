package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/anacache"
	"repro/internal/corpus"
	"repro/internal/footprint"
)

// cacheTestCorpus is a small but structurally complete corpus: every
// binary shape (static, dynamic, private-lib, script) appears.
func cacheTestCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{
		Packages: 60, Installations: 100000, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameFootprints asserts that two studies measured identical per-package
// footprints — the cache's correctness contract: a hit must be
// indistinguishable from re-analysis.
func sameFootprints(t *testing.T, want, got *Study) {
	t.Helper()
	if len(want.Input.Footprints) != len(got.Input.Footprints) {
		t.Fatalf("footprint count %d != %d",
			len(got.Input.Footprints), len(want.Input.Footprints))
	}
	for name, w := range want.Input.Footprints {
		g := got.Input.Footprints[name]
		if g == nil {
			t.Fatalf("%s: footprint missing from cached run", name)
		}
		if w.Count() != g.Count() {
			t.Fatalf("%s: footprint size %d != %d", name, g.Count(), w.Count())
		}
		for _, api := range w.SortedAPIs() {
			if !g.Contains(api) {
				t.Errorf("%s: %v lost by the cached run", name, api)
			}
		}
	}
}

// TestRunCachedMatchesUncached is the cache's end-to-end equivalence
// check: a cold cached run (all misses), a warm cached run (all hits),
// and the uncached pipeline must agree on every footprint.
func TestRunCachedMatchesUncached(t *testing.T) {
	c := cacheTestCorpus(t)
	plain, err := Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cache, err := anacache.Open(t.TempDir(), footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := RunCached(c, footprint.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	sameFootprints(t, plain, cold)
	st := cache.Stats()
	if st.Hits != 0 || st.Misses == 0 || st.Writes != st.Misses {
		t.Fatalf("cold run stats = %+v, want all misses written", st)
	}

	warm, err := RunCached(c, footprint.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	sameFootprints(t, plain, warm)
	st2 := cache.Stats()
	if st2.Misses != st.Misses {
		t.Errorf("warm run missed %d new entries, want 0", st2.Misses-st.Misses)
	}
	if st2.Hits != st.Misses {
		t.Errorf("warm run hit %d entries, want %d", st2.Hits, st.Misses)
	}
}

// TestRunCachedCorruptedRecordsRecover mangles every on-disk record
// between runs. The next process must fall back to re-analysis for each
// of them — identical footprints, never garbage served from the wreck.
func TestRunCachedCorruptedRecordsRecover(t *testing.T) {
	c := cacheTestCorpus(t)
	dir := t.TempDir()
	cache, err := anacache.Open(dir, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunCached(c, footprint.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}

	corrupted := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		corrupted++
		// Alternate failure modes: invalid JSON and truncation.
		if corrupted%2 == 0 {
			return os.WriteFile(path, []byte("{broken"), 0o644)
		}
		return os.Truncate(path, info.Size()/2)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no cache records written to corrupt")
	}

	// A fresh Cache models the next process: no in-memory memo shields it
	// from the damaged files.
	fresh, err := anacache.Open(dir, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := RunCached(c, footprint.Options{}, fresh)
	if err != nil {
		t.Fatal(err)
	}
	sameFootprints(t, plain, again)
	st := fresh.Stats()
	if st.Invalidations != uint64(corrupted) {
		t.Errorf("invalidations = %d, want %d", st.Invalidations, corrupted)
	}
	if st.Hits != 0 {
		t.Errorf("hits = %d on an all-corrupt cache, want 0", st.Hits)
	}

	// The re-analysis repaired the records: one more process hits clean.
	repaired, err := anacache.Open(dir, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached(c, footprint.Options{}, repaired); err != nil {
		t.Fatal(err)
	}
	if st := repaired.Stats(); st.Invalidations != 0 || st.Misses != 0 {
		t.Errorf("repaired cache stats = %+v, want pure hits", st)
	}
}

// TestRunCachedEmulation exercises the lazy re-analysis path: a study
// built from cache hits has no disassembled libraries until emulation
// asks for them.
func TestRunCachedEmulation(t *testing.T) {
	c := cacheTestCorpus(t)
	cache, err := anacache.Open(t.TempDir(), footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached(c, footprint.Options{}, cache); err != nil {
		t.Fatal(err)
	}
	warm, err := RunCached(c, footprint.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	warm.EnsureEmulatable()
	// Idempotent: a second call must not re-analyze again.
	warm.EnsureEmulatable()
}
