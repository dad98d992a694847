package evolution

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/corpus"
)

func testConfig(dir string, cache *repro.AnalysisCache) Config {
	return Config{
		Series: corpus.SeriesConfig{
			Base:        corpus.Config{Packages: 80, Installations: 100000, Seed: 7},
			Generations: 3,
			Births:      2,
			Deaths:      1,
			Drifts:      3,
			Rewires:     2,
			PopconShift: 0.3,
		},
		Dir:   dir,
		Cache: cache,
	}
}

// TestBuildByteStable is the acceptance gate: the same SeriesConfig built
// twice — once cold, once through the now-warm cache — produces
// byte-identical snapshots and trend series.
func TestBuildByteStable(t *testing.T) {
	cache, err := repro.OpenAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir1, dir2 := t.TempDir(), t.TempDir()
	s1, err := Build(testConfig(dir1, cache))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(testConfig(dir2, cache))
	if err != nil {
		t.Fatal(err)
	}

	for g := 0; g < s1.Generations(); g++ {
		a, err := os.ReadFile(filepath.Join(dir1, snapName(g)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir2, snapName(g)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("generation %d snapshots differ (%d vs %d bytes)", g, len(a), len(b))
		}
	}
	a, err := os.ReadFile(filepath.Join(dir1, TrendsFile))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir2, TrendsFile))
	if err != nil {
		t.Fatal(err)
	}
	// The cache-counter columns differ between a cold and a warm build by
	// design; everything else must match byte for byte.
	ta, tb := s1.Trends, s2.Trends
	if !reflect.DeepEqual(ta.Importance, tb.Importance) ||
		!reflect.DeepEqual(ta.Completeness, tb.Completeness) ||
		!reflect.DeepEqual(ta.Path, tb.Path) {
		t.Error("trend series differ between cold and warm build")
	}
	for g := range ta.Generations {
		if ta.Generations[g].Fingerprint != tb.Generations[g].Fingerprint {
			t.Errorf("generation %d fingerprint differs", g)
		}
	}
	// A second warm build is a full byte-identical fixed point.
	dir3 := t.TempDir()
	if _, err := Build(testConfig(dir3, cache)); err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(filepath.Join(dir3, TrendsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, c) {
		t.Error("trends.json not byte-stable across two warm builds")
	}
	_ = a
}

// TestIncrementalCacheHitRate proves the warm rebuild re-analyzes only
// drifted binaries: across two adjacent generations the analysis-cache
// miss delta equals exactly the number of ELF files whose bytes are new
// in that generation, and everything else hits.
func TestIncrementalCacheHitRate(t *testing.T) {
	cache, err := repro.OpenAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t.TempDir(), cache)
	series, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute, from the corpora alone, which ELF payloads are new per
	// generation — the exact population a content-addressed cache must
	// re-analyze.
	corpora, err := corpus.GenerateSeries(cfg.Series)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[sha256.Size]byte]bool{}
	for g, c := range corpora {
		var elfs, fresh uint64
		for _, name := range c.Repo.Names() {
			for _, f := range c.Repo.Get(name).Files {
				if len(f.Data) < 4 || f.Data[0] != 0x7F {
					continue
				}
				elfs++
				sum := sha256.Sum256(f.Data)
				if !seen[sum] {
					seen[sum] = true
					fresh++
				}
			}
		}
		info := series.Trends.Generations[g]
		if info.CacheMisses != fresh {
			t.Errorf("generation %d: cache misses = %d, want %d (new binaries)",
				g, info.CacheMisses, fresh)
		}
		if info.CacheHits != elfs-fresh {
			t.Errorf("generation %d: cache hits = %d, want %d (carried-forward binaries)",
				g, info.CacheHits, elfs-fresh)
		}
		if g > 0 {
			if fresh == 0 {
				t.Errorf("generation %d drifted no binaries; series config too weak", g)
			}
			if elfs-fresh == 0 {
				t.Errorf("generation %d carried nothing forward", g)
			}
		}
	}
}

// TestTrendsMatchOfflineRecompute checks the stored trend series against
// an independent recomputation from the per-generation studies.
func TestTrendsMatchOfflineRecompute(t *testing.T) {
	cfg := testConfig(t.TempDir(), nil)
	series, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := series.Generations()

	// Importance trajectories, recomputed through the public Study API.
	checked := 0
	for _, tr := range series.Trends.Importance {
		if tr.Kind != "syscall" {
			continue
		}
		for g := 0; g < n; g++ {
			want := series.Study(g).Importance(tr.API)
			if math.Abs(tr.Importance[g]-want) > 1e-12 {
				t.Fatalf("importance[%s][gen %d] = %v, study says %v", tr.API, g, tr.Importance[g], want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no syscall importance trends recorded")
	}

	// Completeness trajectories against EvaluateSystems per generation.
	for g := 0; g < n; g++ {
		results := series.Study(g).EvaluateSystems()
		if len(results) != len(series.Trends.Completeness) {
			t.Fatalf("gen %d: %d compat rows, trends have %d", g, len(results), len(series.Trends.Completeness))
		}
		for i, res := range results {
			tr := series.Trends.Completeness[i]
			if tr.Name != res.System.Name {
				t.Fatalf("completeness row %d is %s, want %s", i, tr.Name, res.System.Name)
			}
			if math.Abs(tr.Completeness[g]-res.Completeness) > 1e-12 {
				t.Errorf("completeness[%s][gen %d] = %v, study says %v",
					tr.Name, g, tr.Completeness[g], res.Completeness)
			}
		}
	}

	// Path ranks against the per-generation greedy path.
	for _, tr := range series.Trends.Path {
		for g := 0; g < n; g++ {
			path := series.Study(g).GreedyPath()
			if len(path) > series.Trends.PathHead {
				path = path[:series.Trends.PathHead]
			}
			want := 0
			for i, pp := range path {
				if pp.API.Name == tr.API {
					want = i + 1
					break
				}
			}
			if tr.Rank[g] != want {
				t.Errorf("path rank[%s][gen %d] = %d, want %d", tr.API, g, tr.Rank[g], want)
			}
		}
	}
}

// TestLoadRoundTrip reopens a built series from disk and checks the
// restored studies answer like the originals.
func TestLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	built, err := Build(testConfig(dir, nil))
	if err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(built.Trends, loaded.Trends) {
		t.Error("loaded trends differ from built trends")
	}
	if loaded.Generations() != built.Generations() {
		t.Fatalf("loaded %d generations, want %d", loaded.Generations(), built.Generations())
	}
	for g := 0; g < built.Generations(); g++ {
		if got, want := loaded.Study(g).Fingerprint(), built.Study(g).Fingerprint(); got != want {
			t.Errorf("gen %d fingerprint %s, want %s", g, got, want)
		}
		for _, call := range []string{"open", "write", "mmap"} {
			if got, want := loaded.Study(g).Importance(call), built.Study(g).Importance(call); got != want {
				t.Errorf("gen %d importance(%s) = %v, want %v", g, call, got, want)
			}
		}
	}
}

// TestWriteTrendsConcurrent has several builders write trends.json into
// one series directory at once: no write may fail on another's temp
// file, the file left behind must parse, and no temp file may remain.
func TestWriteTrendsConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, TrendsFile)
	want := &Trends{PathHead: DefaultPathHead, Path: []PathTrend{{API: "read", Rank: []int{1, 2}, Direction: "away"}}}
	const writers, writes = 8, 50
	errs := make(chan error, writers*writes)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if err := writeTrends(path, want); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if n := len(errs); n > 0 {
		t.Errorf("%d of %d concurrent writes failed; first: %v", n, writers*writes, <-errs)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Trends
	if err := json.Unmarshal(raw, &got); err != nil || !reflect.DeepEqual(&got, want) {
		t.Errorf("trends.json after concurrent writes = %+v, %v", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Errorf("series dir holds %d entries, want only %s: %v", len(ents), TrendsFile, err)
	}
}

func TestPathDirection(t *testing.T) {
	cases := []struct {
		rank []int
		want string
	}{
		{[]int{0, 0, 5}, "toward"},
		{[]int{5, 3, 1}, "toward"},
		{[]int{5, 0, 0}, "away"},
		{[]int{1, 2, 9}, "away"},
		{[]int{4, 4, 4}, "stable"},
		{[]int{0, 3, 0}, "stable"},
	}
	for _, c := range cases {
		if got := pathDirection(c.rank); got != c.want {
			t.Errorf("pathDirection(%v) = %q, want %q", c.rank, got, c.want)
		}
	}
}
