package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each benchmark
// recomputes its experiment from the shared analyzed corpus; the rendered
// rows are what cmd/apistudy prints. BenchmarkPipeline* cover the raw
// analysis stages, and BenchmarkAblation* cover the design choices
// DESIGN.md calls out.

import (
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/fleet"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/seccomp"
	"repro/internal/x86"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
	benchErr   error
)

func benchSetup(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy, benchErr = NewStudy(Config{
			Packages: 600, Installations: 2935744, Seed: 1504,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

func sinkString(b *testing.B, s string) {
	if len(s) == 0 {
		b.Fatal("experiment rendered nothing")
	}
}

// --- One benchmark per figure and table -------------------------------

func BenchmarkFigure1BinaryTypes(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Figure1())
	}
}

func BenchmarkFigure2SyscallImportance(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := report.New(s.Core()) // recompute importance from footprints
		sinkString(b, r.Figure2())
	}
}

func BenchmarkTable1LibraryOnlySyscalls(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table1())
	}
}

func BenchmarkTable2SinglePackageSyscalls(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table2())
	}
}

func BenchmarkTable3UnusedSyscalls(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table3())
	}
}

func BenchmarkFigure3WeightedCompleteness(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The full greedy path is the figure's series.
		path := metrics.GreedyPath(s.Core().Input, linuxapi.KindSyscall)
		if len(path) == 0 {
			b.Fatal("empty path")
		}
	}
}

func BenchmarkTable4Stages(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table4())
	}
}

func BenchmarkFigure4IoctlOpcodes(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Figure4())
	}
}

func BenchmarkFigure5FcntlPrctl(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Figure5())
	}
}

func BenchmarkFigure6PseudoFiles(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Figure6())
	}
}

func BenchmarkFigure7LibcImportance(b *testing.B) {
	s := benchSetup(b)
	stripped := s.StrippedLibc(0.90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Figure7(stripped))
	}
}

func BenchmarkTable5LibcInitSyscalls(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table5())
	}
}

func BenchmarkTable6LinuxSystems(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := s.EvaluateSystems()
		if len(results) != 5 {
			b.Fatal("expected 5 systems")
		}
	}
}

func BenchmarkTable7LibcVariants(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Includes the __chk-normalization ablation: both columns.
		results := s.EvaluateLibcVariants()
		for _, r := range results {
			if r.Normalized < r.Raw-1e-9 {
				b.Fatal("normalization must not reduce completeness")
			}
		}
	}
}

func BenchmarkFigure8UnweightedImportance(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Figure8())
	}
}

func BenchmarkTable8SecureVariants(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table8())
	}
}

func BenchmarkTable9OldNewVariants(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table9())
	}
}

func BenchmarkTable10PortableVariants(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table10())
	}
}

func BenchmarkTable11SimplicityVariants(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table11())
	}
}

func BenchmarkTable12Implementation(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Table12())
	}
}

func BenchmarkSection6UniqueFootprints(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkString(b, s.Metrics().Section6())
	}
}

func BenchmarkSection6SeccompGeneration(b *testing.B) {
	s := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, prog, err := s.SeccompPolicy("coreutils", seccomp.RetKill)
		if err != nil {
			b.Fatal(err)
		}
		if len(pol.Allowed) == 0 || len(prog) == 0 {
			b.Fatal("empty policy")
		}
	}
}

// --- Pipeline-stage benchmarks -----------------------------------------

func BenchmarkPipelineCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := corpus.Generate(corpus.Config{Packages: 150, Installations: 1 << 20, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if c.Repo.Len() != 150 {
			b.Fatal("bad corpus")
		}
	}
}

func BenchmarkPipelineFullStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := corpus.Generate(corpus.Config{Packages: 150, Installations: 1 << 20, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.Run(c, footprint.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineAnalyzeBinary(b *testing.B) {
	s := benchSetup(b)
	pkg := s.Core().Corpus.Repo.Get("coreutils")
	var data []byte
	var path string
	for _, f := range pkg.Files {
		if len(f.Data) > 4 && f.Data[0] == 0x7F {
			data, path = f.Data, f.Path
			break
		}
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin, err := elfx.Open(path, data)
		if err != nil {
			b.Fatal(err)
		}
		a := footprint.Analyze(bin, footprint.Options{})
		if a == nil {
			b.Fatal("nil analysis")
		}
	}
}

func BenchmarkPipelineDecode(b *testing.B) {
	s := benchSetup(b)
	pkg := s.Core().Corpus.Repo.Get("libc6")
	var text []byte
	for _, f := range pkg.Files {
		if f.Path == "/lib/x86_64-linux-gnu/libc.so.6" {
			bin, err := elfx.Open(f.Path, f.Data)
			if err != nil {
				b.Fatal(err)
			}
			text = bin.Text.Data
		}
	}
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insts := 0
		for pos := 0; pos < len(text); {
			inst := x86.Decode(text[pos:], uint64(pos))
			pos += inst.Len
			insts++
		}
		if insts == 0 {
			b.Fatal("no instructions")
		}
	}
}

// poolELFs lists every ELF binary under an on-disk corpus pool, sorted
// (WalkDir is lexical) so the incremental benchmark touches a stable set.
func poolELFs(b *testing.B, dir string) []string {
	b.Helper()
	var out []string
	err := filepath.WalkDir(filepath.Join(dir, "pool"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(raw) > 4 && raw[0] == 0x7F && raw[1] == 'E' {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(out) == 0 {
		b.Fatal("no ELF binaries in pool")
	}
	return out
}

// touchFile invalidates a binary's cache record the way a package update
// would: its bytes change (a trailing pad byte the ELF parser ignores),
// so its content hash — and only its — misses on the next load.
func touchFile(b *testing.B, path string) {
	b.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := f.Write([]byte{0}); err != nil {
		f.Close()
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStudyColdVsWarm measures what the analysis cache buys: "cold"
// loads an on-disk corpus with no cache (every binary disassembled),
// "warm" reloads it through a fully populated cache (no disassembly at
// all — the paper's query-the-stored-rows mode), and "incremental"
// reloads after touching 1% of the binaries (only those re-analyze).
// scripts/bench.sh runs this and gates CI on warm being ≥2× cold.
func BenchmarkStudyColdVsWarm(b *testing.B) {
	dir := b.TempDir()
	// CodeBulk gives each synthetic binary the code volume of a real one
	// (tens of KB of .text around a handful of call sites); without it the
	// corpus understates how much disassembly the cache avoids.
	c, err := corpus.Generate(corpus.Config{
		Packages: 150, Installations: 1 << 20, Seed: 42, CodeBulk: 24 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		b.Fatal(err)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadStudy(dir); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		cache, err := OpenAnalysisCache(filepath.Join(dir, "anacache-warm"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := LoadStudyCached(dir, cache); err != nil { // populate
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := LoadStudyCached(dir, cache)
			if err != nil {
				b.Fatal(err)
			}
			if cs := s.CacheStats(); cs.Hits == 0 {
				b.Fatal("warm load hit nothing")
			}
		}
	})

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		cache, err := OpenAnalysisCache(filepath.Join(dir, "anacache-incr"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := LoadStudyCached(dir, cache); err != nil { // populate
			b.Fatal(err)
		}
		elfs := poolELFs(b, dir)
		n := (len(elfs) + 99) / 100 // 1% of binaries, at least one
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < n; j++ {
				touchFile(b, elfs[j*len(elfs)/n])
			}
			b.StartTimer()
			if _, err := LoadStudyCached(dir, cache); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotOpenVsRebuild prices what the columnar snapshot
// format buys a replica at swap time: "rebuild" analyzes an on-disk
// corpus from scratch (what a replica without snapshots must do),
// "open" restores the same study from a snapshot file (one heap read +
// column decode, no disassembly at all). scripts/bench.sh records both as
// snapshot_rebuild/snapshot_open in BENCH_pipeline.json and benchgate
// gates CI on open being ≥10× faster.
func BenchmarkSnapshotOpenVsRebuild(b *testing.B) {
	dir := b.TempDir()
	c, err := corpus.Generate(corpus.Config{
		Packages: 150, Installations: 1 << 20, Seed: 42, CodeBulk: 24 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		b.Fatal(err)
	}
	ref, err := LoadStudy(dir)
	if err != nil {
		b.Fatal(err)
	}
	snapPath := filepath.Join(dir, "study.snap")
	if err := ref.WriteSnapshot(snapPath, 1); err != nil {
		b.Fatal(err)
	}

	b.Run("rebuild", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadStudy(dir); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := LoadSnapshotStudy(snapPath)
			if err != nil {
				b.Fatal(err)
			}
			if s.Fingerprint() != ref.Fingerprint() {
				b.Fatal("snapshot restored a different study")
			}
			s.Close()
		}
	})
}

// BenchmarkStudyFleetVsLocal prices the fleet's coordination tax on one
// machine: "local" analyzes an on-disk corpus in-process, "fleet" routes
// every shard through two loopback HTTP workers (serialize, POST, analyze
// remotely, deserialize, merge). The delta is pure coordination overhead —
// the win in production comes from the workers being separate machines.
// scripts/bench.sh records both as fleet_local/fleet in BENCH_pipeline.json.
func BenchmarkStudyFleetVsLocal(b *testing.B) {
	dir := b.TempDir()
	c, err := corpus.Generate(corpus.Config{
		Packages: 150, Installations: 1 << 20, Seed: 42, CodeBulk: 24 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		b.Fatal(err)
	}

	b.Run("local", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadStudy(dir); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("fleet", func(b *testing.B) {
		b.ReportAllocs()
		w1 := httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{}))
		defer w1.Close()
		w2 := httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{}))
		defer w2.Close()
		coord := fleet.New(fleet.Config{
			Workers:      []string{w1.URL, w2.URL},
			RetryBackoff: 5 * time.Millisecond,
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := LoadStudyDistributed(dir, nil, coord.AnalyzeJobs); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := coord.Stats(); st.Dispatched == 0 || st.LocalFallbackShards != 0 {
			b.Fatalf("fleet did not carry the load: %+v", st)
		}
	})
}

// --- Ablation benchmarks (DESIGN.md) ------------------------------------

func benchAblation(b *testing.B, opts footprint.Options) {
	c, err := corpus.Generate(corpus.Config{Packages: 150, Installations: 1 << 20, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Run(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		imp := metrics.Importance(s.Input)
		if len(imp) == 0 {
			b.Fatal("no importance measured")
		}
	}
}

func BenchmarkAblationReachabilityVsWholeBinary(b *testing.B) {
	b.Run("reachability", func(b *testing.B) { benchAblation(b, footprint.Options{}) })
	b.Run("whole-binary", func(b *testing.B) { benchAblation(b, footprint.Options{WholeBinary: true}) })
}

func BenchmarkAblationFunctionPointers(b *testing.B) {
	b.Run("with-taken-edges", func(b *testing.B) { benchAblation(b, footprint.Options{}) })
	b.Run("without", func(b *testing.B) { benchAblation(b, footprint.Options{NoFunctionPointers: true}) })
}

func BenchmarkAblationDependencyPropagation(b *testing.B) {
	s := benchSetup(b)
	supported := compat.SupportedSet(compat.Systems[2], s.Metrics().Path)
	run := func(b *testing.B, opts metrics.CompletenessOptions) {
		for i := 0; i < b.N; i++ {
			wc := metrics.WeightedCompleteness(s.Core().Input, supported, opts)
			if wc <= 0 || wc > 1 {
				b.Fatalf("wc = %v", wc)
			}
		}
	}
	b.Run("with-propagation", func(b *testing.B) {
		run(b, metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
	})
	b.Run("without", func(b *testing.B) {
		run(b, metrics.CompletenessOptions{Kind: linuxapi.KindSyscall,
			NoDependencyPropagation: true})
	})
}
