package evolution

import (
	"testing"

	"repro"
	"repro/internal/corpus"
)

// benchSeriesConfig is the benchmark's release series: three generations
// under the default drift model. CodeBulk gives each synthetic binary
// the code volume of a real one, so the benchmark prices the disassembly
// the cache actually avoids.
func benchSeriesConfig() corpus.SeriesConfig {
	cfg := corpus.DefaultSeriesConfig()
	cfg.Base = corpus.Config{
		Packages: 120, Installations: 1 << 20, Seed: 42, CodeBulk: 24 << 10,
	}
	return cfg
}

// BenchmarkEvolutionSeriesColdVsWarm measures what the analysis cache
// buys a series rebuild: "cold" builds the full 3-generation series with
// no cache (every binary of every generation disassembled), "warm"
// rebuilds it through a fully populated cache — unchanged packages are
// carried forward byte-identically across generations, so only the
// trend computation and snapshot writes remain. scripts/bench.sh records
// both as evolution_cold/evolution_warm in BENCH_pipeline.json and
// benchgate gates CI on warm being ≥2× cold.
func BenchmarkEvolutionSeriesColdVsWarm(b *testing.B) {
	cfg := benchSeriesConfig()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Build(Config{Series: cfg, Dir: b.TempDir()}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		cache, err := repro.OpenAnalysisCache(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Build(Config{Series: cfg, Dir: b.TempDir(), Cache: cache}); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := Build(Config{Series: cfg, Dir: b.TempDir(), Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if s.Trends.Generations[0].CacheHits == 0 {
				b.Fatal("warm series build hit nothing")
			}
		}
	})
}
