// Package service turns the batch reproduction into a resident query
// system: one analyzed repro.Study is held behind an atomically-swappable
// snapshot (load or generate once, serve forever), every query is
// answered as pre-encoded bytes (see hotpath.go: a per-generation
// hotset, then a byte-bounded cache, then a singleflighted compute), and
// ad-hoc analyses of uploaded ELF binaries run in a concurrency-limited
// pool. The paper built its framework as a reusable substrate
// (PostgreSQL plus recursive queries, §7) precisely so footprint and
// completeness questions could be asked repeatedly without
// re-analysis; this package is that substrate as a long-running service.
//
// Concurrency model: every query loads the current *Snapshot pointer once
// and works against it, so a background Swap never tears a request —
// in-flight requests finish on the old study while new ones see the new
// generation. Cache keys embed the generation, so a swap implicitly
// invalidates without locking readers out.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/linuxapi"
	"repro/internal/obs"
	"repro/internal/stubplan"
)

// ErrUnknownPackage reports a query for a package absent from the corpus.
var ErrUnknownPackage = errors.New("service: unknown package")

// ErrBusy reports that the ad-hoc analysis pool is saturated and the
// request gave up waiting for a slot.
var ErrBusy = errors.New("service: analysis pool saturated")

// Config sizes the service.
type Config struct {
	// CacheBytes bounds the encoded-answer byte cache (resident bytes
	// across all shards; default 64 MiB): it bounds memory, not entry
	// count, so a few large answers cannot blow the heap.
	CacheBytes int64
	// MaxAnalyses bounds concurrently running ad-hoc ELF analyses.
	MaxAnalyses int
	// Cache, when non-nil, is the persistent analysis cache reloads go
	// through: binaries unchanged since the last analysis reuse their
	// stored per-binary records, so a background reload recomputes only
	// the aggregation over changed files.
	Cache *repro.AnalysisCache
	// Fleet, when non-nil, distributes the per-binary analysis phase of
	// every reload across its workers; the service degrades to local
	// analysis whenever the fleet does.
	Fleet *fleet.Coordinator
}

// DefaultConfig returns serving defaults suitable for one resident study.
func DefaultConfig() Config {
	return Config{CacheBytes: 64 << 20, MaxAnalyses: 4}
}

// Snapshot is one published study plus its serving metadata. Snapshots
// are immutable once stored; a reload publishes a new one.
type Snapshot struct {
	Study      *repro.Study
	Generation uint64
	// Source describes provenance: a corpus directory or a generation
	// config description.
	Source   string
	LoadedAt time.Time
	// Meta is the study's snapshot metadata, computed once at swap time.
	Meta repro.Meta
	// File is the snapshot file backing this study, when it was loaded
	// from one (see LoadSnapshotFile); empty for analyzed studies.
	File string
}

// Service is the resident query layer over one Study snapshot.
type Service struct {
	cfg  Config
	snap atomic.Pointer[Snapshot]
	gen  atomic.Uint64

	// The encoded-answer read path (see hotpath.go): per-generation
	// precomputed answers behind an atomic pointer, a sharded
	// byte-bounded cache of encoded responses, and a singleflight group
	// collapsing concurrent misses.
	hot          atomic.Pointer[hotset]
	bcache       *byteCache
	flight       flightGroup
	hotsetHits   atomic.Uint64
	flightShared atomic.Uint64

	analyzeSem       chan struct{}
	analysesActive   atomic.Int64
	analysesTotal    atomic.Uint64
	analysesRejected atomic.Uint64

	reloads       atomic.Uint64
	reloadsFailed atomic.Uint64

	snapshotLoads      atomic.Uint64
	snapshotLoadErrors atomic.Uint64
	snapshotFallbacks  atomic.Uint64

	// Release-series serving state (see trends.go).
	series                   atomic.Pointer[seriesState]
	seriesInstalls           atomic.Uint64
	trendImportanceQueries   atomic.Uint64
	trendCompletenessQueries atomic.Uint64
	trendPathQueries         atomic.Uint64
	generationQueries        atomic.Uint64

	// Stub-aware plan serving state (see stubplan.go): the lazily built
	// per-generation verdict matrix behind an atomic pointer, with a
	// mutex serializing the (emulation-heavy) build itself.
	stub        atomic.Pointer[stubState]
	stubMu      sync.Mutex
	stubBuilds  atomic.Uint64
	planQueries atomic.Uint64
}

// New publishes study as generation 1 and returns the serving layer.
func New(study *repro.Study, source string, cfg Config) *Service {
	def := DefaultConfig()
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = def.CacheBytes
	}
	if cfg.MaxAnalyses <= 0 {
		cfg.MaxAnalyses = def.MaxAnalyses
	}
	s := &Service{
		cfg:        cfg,
		bcache:     newByteCache(cfg.CacheBytes),
		analyzeSem: make(chan struct{}, cfg.MaxAnalyses),
	}
	s.Swap(study, source)
	return s
}

// Swap atomically publishes a new study without dropping in-flight
// requests: readers that already loaded the old snapshot finish on it.
// Returns the new generation.
func (s *Service) Swap(study *repro.Study, source string) uint64 {
	gen := s.gen.Add(1)
	study.SetGeneration(gen)
	meta := study.Meta()
	// Precompute the hotset before publishing: the first request against
	// the new generation already finds its hot answers. Old byte-cache
	// entries need no flush — their generation-prefixed keys are simply
	// never asked for again and age out of the shards.
	hot := buildHotset(study, gen, meta.Fingerprint, meta.Packages)
	s.snap.Store(&Snapshot{
		Study:      study,
		Generation: gen,
		Source:     source,
		LoadedAt:   time.Now(),
		Meta:       meta,
	})
	s.hot.Store(hot)
	return gen
}

// Snapshot returns the currently published snapshot.
func (s *Service) Snapshot() *Snapshot { return s.snap.Load() }

// Reload re-analyzes the corpus at dir through the configured analysis
// cache (incrementally, when one is set: per-binary records for
// unchanged files are reused and only the aggregation is recomputed) and
// atomically swaps the new study in. In-flight requests finish on the
// old snapshot. Returns the new generation.
func (s *Service) Reload(dir string) (uint64, error) {
	var analyze repro.JobAnalyzer
	if s.cfg.Fleet != nil {
		analyze = s.cfg.Fleet.AnalyzeJobs
	}
	study, err := repro.LoadStudyDistributed(dir, s.cfg.Cache, analyze)
	if err != nil {
		s.reloadsFailed.Add(1)
		return 0, err
	}
	s.reloads.Add(1)
	return s.Swap(study, dir), nil
}

// RebuildGenerated regenerates a calibrated synthetic corpus from cfg,
// analyzes it (through the analysis cache and worker fleet when
// configured, like Reload) and atomically swaps the new study in.
// Returns the new generation.
func (s *Service) RebuildGenerated(cfg repro.Config) (uint64, error) {
	var analyze repro.JobAnalyzer
	if s.cfg.Fleet != nil {
		analyze = s.cfg.Fleet.AnalyzeJobs
	}
	study, err := repro.NewStudyDistributed(cfg, s.cfg.Cache, analyze)
	if err != nil {
		s.reloadsFailed.Add(1)
		return 0, err
	}
	s.reloads.Add(1)
	source := fmt.Sprintf("generated(packages=%d seed=%d)", cfg.Packages, cfg.Seed)
	return s.Swap(study, source), nil
}

// Generation returns the current snapshot generation.
func (s *Service) Generation() uint64 { return s.gen.Load() }

// Stats is a point-in-time view of the serving counters.
type Stats struct {
	Generation       uint64
	AnalysesActive   int64
	AnalysesTotal    uint64
	AnalysesRejected uint64
	// Reloads and ReloadsFailed count background corpus reloads since
	// start.
	Reloads       uint64
	ReloadsFailed uint64
	// SnapshotLoads / SnapshotLoadErrors count snapshot-file opens;
	// SnapshotFallbacks counts corpus rebuilds forced by a snapshot that
	// failed validation.
	SnapshotLoads      uint64
	SnapshotLoadErrors uint64
	SnapshotFallbacks  uint64
	// Evolution counters: a resident release series (EvolutionOn) with
	// EvolutionGenerations generations, how many series were installed,
	// per-trend-endpoint query counts, generation-selected query counts,
	// and how long the resident series took to build.
	EvolutionOn              bool
	EvolutionGenerations     int
	SeriesInstalls           uint64
	TrendImportanceQueries   uint64
	TrendCompletenessQueries uint64
	TrendPathQueries         uint64
	GenerationQueries        uint64
	SeriesBuildSeconds       float64
	// Read-path counters: the ByteCache* fields cover the encoded-answer
	// cache (per endpoint in Endpoints), and Hotset*/SingleflightShared
	// cover the precomputed-answer table in front of it and the group
	// collapsing concurrent misses behind it.
	ByteCacheHits      uint64
	ByteCacheMisses    uint64
	ByteCacheEvictions uint64
	ByteCacheBytes     int64
	ByteCacheCapacity  int64
	ByteCacheEntries   int
	ByteCacheOversize  uint64
	Endpoints          []EndpointCacheStats
	HotsetHits         uint64
	HotsetBytes        int64
	HotsetEntries      int
	SingleflightShared uint64
	// Stub-aware planning counters: whether a verdict matrix is resident
	// for the current generation (StubMatrixOn), how many matrices were
	// built since start, plan query volume, and the resident matrix's own
	// build statistics (emulator runs performed versus verdicts served
	// from the persistent cache — a warm rebuild shows zero emulations).
	StubMatrixOn     bool
	StubMatrixBuilds uint64
	PlanQueries      uint64
	StubBinaries     uint64
	StubEmulations   uint64
	StubCacheHits    uint64
	StubCacheMisses  uint64
	StubInconclusive uint64
	// StubStaticMisses counts the APIs the resident matrix's baseline
	// runs observed outside their packages' static footprints (§2.3:
	// zero).
	StubStaticMisses uint64
}

// HitRatio returns byte-cache hits over lookups (0 when idle).
func (st Stats) HitRatio() float64 {
	total := st.ByteCacheHits + st.ByteCacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.ByteCacheHits) / float64(total)
}

// Stats returns the current serving counters.
func (s *Service) Stats() Stats {
	snap := s.Snapshot()
	bc := s.bcache.Stats()
	var hotsetBytes int64
	var hotsetEntries int
	if h := s.hot.Load(); h != nil {
		hotsetBytes = h.bytes
		hotsetEntries = len(h.entries)
	}
	var (
		evolutionOn   bool
		evolutionGens int
		buildSeconds  float64
	)
	if ss := s.series.Load(); ss != nil {
		evolutionOn = true
		evolutionGens = ss.series.Generations()
		buildSeconds = ss.buildDur.Seconds()
	}
	var (
		stubOn    bool
		stubStats stubplan.Stats
	)
	if st := s.stub.Load(); st != nil {
		stubOn = st.gen == snap.Generation
		stubStats = st.matrix.Stats
	}
	return Stats{
		Generation:         snap.Generation,
		AnalysesActive:     s.analysesActive.Load(),
		AnalysesTotal:      s.analysesTotal.Load(),
		AnalysesRejected:   s.analysesRejected.Load(),
		Reloads:            s.reloads.Load(),
		ReloadsFailed:      s.reloadsFailed.Load(),
		SnapshotLoads:      s.snapshotLoads.Load(),
		SnapshotLoadErrors: s.snapshotLoadErrors.Load(),
		SnapshotFallbacks:  s.snapshotFallbacks.Load(),

		EvolutionOn:              evolutionOn,
		EvolutionGenerations:     evolutionGens,
		SeriesInstalls:           s.seriesInstalls.Load(),
		TrendImportanceQueries:   s.trendImportanceQueries.Load(),
		TrendCompletenessQueries: s.trendCompletenessQueries.Load(),
		TrendPathQueries:         s.trendPathQueries.Load(),
		GenerationQueries:        s.generationQueries.Load(),
		SeriesBuildSeconds:       buildSeconds,

		StubMatrixOn:     stubOn,
		StubMatrixBuilds: s.stubBuilds.Load(),
		PlanQueries:      s.planQueries.Load(),
		StubBinaries:     stubStats.Binaries,
		StubEmulations:   stubStats.Emulations,
		StubCacheHits:    stubStats.CacheHits,
		StubCacheMisses:  stubStats.CacheMisses,
		StubInconclusive: stubStats.Inconclusive,
		StubStaticMisses: stubStats.StaticMisses,

		ByteCacheHits:      bc.Hits,
		ByteCacheMisses:    bc.Misses,
		ByteCacheEvictions: bc.Evictions,
		ByteCacheBytes:     bc.Bytes,
		ByteCacheCapacity:  bc.CapacityBytes,
		ByteCacheEntries:   bc.Entries,
		ByteCacheOversize:  bc.Oversize,
		Endpoints:          bc.Endpoints,
		HotsetHits:         s.hotsetHits.Load(),
		HotsetBytes:        hotsetBytes,
		HotsetEntries:      hotsetEntries,
		SingleflightShared: s.flightShared.Load(),
	}
}

// WriteMetrics writes the serving families: the read path (byte cache,
// hotset, singleflight), the resident snapshot, ad-hoc analyses,
// reloads and snapshot-file loads, the analysis cache and fleet that
// reloads go through, the release series and the stub-plan matrix.
func (s *Service) WriteMetrics(w *obs.Writer) {
	st := s.Stats()
	snap := s.Snapshot()
	w.Family("apiserved_cache_hits_total", obs.TypeCounter, "Encoded byte-cache hits (unlabeled: all endpoints; labeled: per endpoint). Hotset answers are counted by apiserved_hotset_hits_total.")
	obs.Sample(w, st.ByteCacheHits)
	for _, es := range st.Endpoints {
		obs.Sample(w, es.Hits, "endpoint", es.Endpoint)
	}
	w.Family("apiserved_cache_misses_total", obs.TypeCounter, "Encoded byte-cache misses (unlabeled: all endpoints; labeled: per endpoint).")
	obs.Sample(w, st.ByteCacheMisses)
	for _, es := range st.Endpoints {
		obs.Sample(w, es.Misses, "endpoint", es.Endpoint)
	}
	w.Family("apiserved_cache_evictions_total", obs.TypeCounter, "Encoded byte-cache entries evicted by the byte budget (unlabeled: all endpoints; labeled: per endpoint).")
	obs.Sample(w, st.ByteCacheEvictions)
	for _, es := range st.Endpoints {
		obs.Sample(w, es.Evictions, "endpoint", es.Endpoint)
	}
	obs.Gauge(w, "apiserved_cache_hit_ratio", "Encoded byte-cache hits over lookups since start.", st.HitRatio())
	obs.Gauge(w, "apiserved_cache_bytes", "Resident bytes in the encoded byte cache.", st.ByteCacheBytes)
	obs.Gauge(w, "apiserved_cache_capacity_bytes", "Byte budget of the encoded byte cache.", st.ByteCacheCapacity)
	obs.Gauge(w, "apiserved_cache_byte_entries", "Answers resident in the encoded byte cache.", st.ByteCacheEntries)
	obs.Counter(w, "apiserved_cache_oversize_total", "Answers too large to cache, served uncached.", st.ByteCacheOversize)
	obs.Counter(w, "apiserved_hotset_hits_total", "Requests answered from the precomputed per-generation hotset.", st.HotsetHits)
	obs.Gauge(w, "apiserved_hotset_bytes", "Pre-encoded bytes resident in the current hotset.", st.HotsetBytes)
	obs.Gauge(w, "apiserved_hotset_entries", "Answers resident in the current hotset.", st.HotsetEntries)
	obs.Counter(w, "apiserved_singleflight_shared_total", "Cache misses that shared another in-flight compute.", st.SingleflightShared)

	obs.Gauge(w, "apiserved_snapshot_generation", "Generation of the resident study snapshot.", snap.Generation)
	obs.Gauge(w, "apiserved_snapshot_packages", "Packages in the resident study.", snap.Meta.Packages)
	obs.Gauge(w, "apiserved_snapshot_executables", "Executables in the resident study.", snap.Meta.Executables)
	obs.Gauge(w, "apiserved_snapshot_skipped_files", "Malformed ELF files skipped while building the snapshot.", snap.Meta.SkippedFiles)
	obs.Gauge(w, "apiserved_snapshot_from_file", "Whether the served study was restored from a snapshot file.", snap.File != "")
	obs.Gauge(w, "apiserved_analyses_active", "Ad-hoc ELF analyses running.", st.AnalysesActive)
	obs.Counter(w, "apiserved_analyses_total", "Ad-hoc ELF analyses run.", st.AnalysesTotal)
	obs.Counter(w, "apiserved_analyses_rejected_total", "Ad-hoc ELF analyses refused while the pool stayed full.", st.AnalysesRejected)
	obs.Counter(w, "apiserved_snapshot_reloads_total", "Background corpus reloads swapped in.", st.Reloads)
	obs.Counter(w, "apiserved_snapshot_reloads_failed_total", "Background corpus reloads that failed.", st.ReloadsFailed)
	obs.Counter(w, "apiserved_snapshot_file_loads_total", "Snapshot files validated and swapped in.", st.SnapshotLoads)
	obs.Counter(w, "apiserved_snapshot_file_errors_total", "Snapshot files that failed validation.", st.SnapshotLoadErrors)
	obs.Counter(w, "apiserved_snapshot_fallbacks_total", "Corpus rebuilds forced by a snapshot file that failed validation.", st.SnapshotFallbacks)

	obs.Gauge(w, "apiserved_anacache_enabled", "Whether a persistent analysis cache is configured.", s.cfg.Cache != nil)
	s.cfg.Cache.WriteMetrics(w, "apiserved")
	s.cfg.Fleet.WriteMetrics(w)

	obs.Gauge(w, "apiserved_evolution_enabled", "Whether a release series is resident for trend queries.", st.EvolutionOn)
	obs.Gauge(w, "apiserved_evolution_generations", "Generations resident in the release series.", st.EvolutionGenerations)
	obs.Counter(w, "apiserved_evolution_series_installs_total", "Release series installed over the server's lifetime.", st.SeriesInstalls)
	w.Family("apiserved_evolution_trend_queries_total", obs.TypeCounter, "Trend queries answered, by endpoint.")
	obs.Sample(w, st.TrendImportanceQueries, "endpoint", "importance")
	obs.Sample(w, st.TrendCompletenessQueries, "endpoint", "completeness")
	obs.Sample(w, st.TrendPathQueries, "endpoint", "path")
	obs.Counter(w, "apiserved_evolution_generation_queries_total", "Ordinary queries retargeted at a series generation via ?gen=.", st.GenerationQueries)
	obs.Gauge(w, "apiserved_evolution_series_build_seconds", "Wall time spent building the resident series.", st.SeriesBuildSeconds)

	obs.Gauge(w, "apiserved_stubplan_enabled", "Whether a stub/fake verdict matrix is resident for the current generation.", st.StubMatrixOn)
	obs.Counter(w, "apiserved_stubplan_matrix_builds_total", "Verdict matrices built over the server's lifetime.", st.StubMatrixBuilds)
	obs.Counter(w, "apiserved_stubplan_plan_queries_total", "Plan queries answered.", st.PlanQueries)
	obs.Gauge(w, "apiserved_stubplan_binaries", "Executables classified by the resident verdict matrix.", st.StubBinaries)
	obs.Counter(w, "apiserved_stubplan_emulations_total", "Emulator runs performed building the resident verdict matrix (zero on a warm verdict cache).", st.StubEmulations)
	w.Family("apiserved_stubplan_verdict_cache_total", obs.TypeCounter, "Verdict-cache lookups building the resident matrix, by outcome.")
	obs.Sample(w, st.StubCacheHits, "outcome", "hit")
	obs.Sample(w, st.StubCacheMisses, "outcome", "miss")
	obs.Gauge(w, "apiserved_stubplan_inconclusive", "Binaries whose baseline emulation did not complete (no waivers granted).", st.StubInconclusive)
	obs.Gauge(w, "apiserved_stubplan_static_misses", "APIs the resident matrix's baseline runs observed outside their package's static footprint (the static-superset invariant: zero).", st.StubStaticMisses)
}

// normalizeSyscalls dedups and sorts names, splitting off any not in the
// x86-64 Linux 3.19 table.
func normalizeSyscalls(names []string) (known, unknown []string) {
	seen := make(map[string]bool, len(names))
	for _, raw := range names {
		name := strings.TrimSpace(raw)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		if linuxapi.SyscallByName(name) != nil {
			known = append(known, name)
		} else {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(known)
	sort.Strings(unknown)
	return known, unknown
}

// setKey fingerprints a (large) normalized syscall list for cache keys.
func setKey(names []string) string {
	h := sha256.New()
	for _, n := range names {
		io.WriteString(h, n)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// ImportanceResult answers /v1/importance/{syscall}.
type ImportanceResult struct {
	Syscall string `json:"syscall"`
	// Known reports whether the name is in the syscall table at all.
	Known      bool    `json:"known"`
	Importance float64 `json:"importance"`
	Unweighted float64 `json:"unweighted"`
	Generation uint64  `json:"generation"`
}

// CompletenessResult answers /v1/completeness.
type CompletenessResult struct {
	// Syscalls is the number of distinct recognized calls evaluated.
	Syscalls int `json:"syscalls"`
	// Unknown lists submitted names absent from the syscall table; they
	// contribute nothing and are reported so callers catch typos.
	Unknown      []string `json:"unknown,omitempty"`
	Completeness float64  `json:"completeness"`
	Generation   uint64   `json:"generation"`
	Cached       bool     `json:"cached"`
}

// SuggestResult answers /v1/suggest: the paper's §1 question, "which APIs
// would increase the range of supported applications?", asked iteratively
// the way compatibility-layer developers do.
type SuggestResult struct {
	Supported   int                `json:"supported"`
	Unknown     []string           `json:"unknown,omitempty"`
	Suggestions []repro.Suggestion `json:"suggestions"`
	Generation  uint64             `json:"generation"`
	Cached      bool               `json:"cached"`
}

// GreedyPrefixResult answers greedy-path prefix queries: the first N
// steps of the most-important-first ordering (Figure 3).
type GreedyPrefixResult struct {
	N          int              `json:"n"`
	Syscalls   []string         `json:"syscalls"`
	Curve      []CurvePointJSON `json:"curve"`
	Generation uint64           `json:"generation"`
	Cached     bool             `json:"cached"`
}

// CurvePointJSON is one step of the greedy path in wire form.
type CurvePointJSON struct {
	N            int     `json:"n"`
	Syscall      string  `json:"syscall"`
	Importance   float64 `json:"importance"`
	Completeness float64 `json:"completeness"`
}

// FootprintResult answers /v1/footprint/{pkg}.
type FootprintResult struct {
	Package    string   `json:"package"`
	Syscalls   []string `json:"syscalls"`
	Generation uint64   `json:"generation"`
}

// SeccompResult answers /v1/seccomp/{pkg}: a compiled, verified
// seccomp-BPF program for the package's footprint.
type SeccompResult struct {
	Package      string `json:"package"`
	DenyAction   string `json:"deny_action"`
	Syscalls     int    `json:"syscalls"`
	Instructions int    `json:"instructions"`
	// Listing is the program disassembly, one instruction per line.
	Listing    string `json:"listing"`
	Generation uint64 `json:"generation"`
	Cached     bool   `json:"cached"`
}

// ParseDenyAction maps a wire-format deny action name to its seccomp
// return value. The empty string defaults to errno.
func ParseDenyAction(name string) (uint32, string, error) {
	switch strings.ToLower(name) {
	case "", "errno":
		return repro.SeccompErrno, "errno", nil
	case "kill":
		return repro.SeccompKill, "kill", nil
	}
	return 0, "", fmt.Errorf("service: unknown deny action %q (want errno or kill)", name)
}

// SystemRow is one evaluated compatibility layer (Table 6) in wire form.
type SystemRow struct {
	Name              string   `json:"name"`
	Version           string   `json:"version"`
	Supported         int      `json:"supported"`
	Completeness      float64  `json:"completeness"`
	PaperCompleteness float64  `json:"paper_completeness"`
	Suggested         []string `json:"suggested,omitempty"`
}

// CompatSystemsResult answers /v1/compat/systems.
type CompatSystemsResult struct {
	Systems    []SystemRow `json:"systems"`
	Generation uint64      `json:"generation"`
	Cached     bool        `json:"cached"`
}

// AnalyzeResult answers /v1/analyze: the footprint of an uploaded ELF.
type AnalyzeResult struct {
	Syscalls    []string `json:"syscalls"`
	PseudoFiles []string `json:"pseudo_files,omitempty"`
	Sites       int      `json:"sites"`
	Unresolved  int      `json:"unresolved"`
	Generation  uint64   `json:"generation"`
}

// Analyze runs the footprint extraction on uploaded ELF bytes inside the
// bounded analysis pool. It blocks for a slot until ctx is done; a
// cancelled wait counts as a rejection and returns ErrBusy.
func (s *Service) Analyze(ctx context.Context, name string, data []byte) (AnalyzeResult, error) {
	select {
	case s.analyzeSem <- struct{}{}:
	case <-ctx.Done():
		s.analysesRejected.Add(1)
		return AnalyzeResult{}, fmt.Errorf("%w: %v", ErrBusy, ctx.Err())
	}
	defer func() { <-s.analyzeSem }()
	s.analysesActive.Add(1)
	defer s.analysesActive.Add(-1)
	s.analysesTotal.Add(1)

	snap := s.Snapshot()
	if name == "" {
		name = "upload"
	}
	res, err := snap.Study.AnalyzeBinary(name, data)
	if err != nil {
		return AnalyzeResult{}, err
	}
	out := AnalyzeResult{
		Sites:      res.Sites,
		Unresolved: res.Unresolved,
		Generation: snap.Generation,
	}
	for api := range res.APIs {
		switch api.Kind {
		case linuxapi.KindSyscall:
			out.Syscalls = append(out.Syscalls, api.Name)
		case linuxapi.KindPseudoFile:
			out.PseudoFiles = append(out.PseudoFiles, api.Name)
		}
	}
	sort.Strings(out.Syscalls)
	sort.Strings(out.PseudoFiles)
	return out, nil
}

// CorpusSignature fingerprints an on-disk corpus directory from its two
// index files (the package index and the survey); any regeneration
// rewrites at least one of them. Used by WatchCorpus to detect change
// without re-reading every binary.
func CorpusSignature(dir string) (string, error) {
	h := sha256.New()
	for _, name := range []string{"Packages", "by_inst"} {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// WatchCorpus polls dir every interval and, when the corpus signature
// changes, re-analyzes it in the background and swaps the new study in —
// without dropping requests, which keep being served from the old
// snapshot until the swap. Blocks until ctx is done; run it in a
// goroutine. logf (may be nil) receives progress lines.
func (s *Service) WatchCorpus(ctx context.Context, dir string, interval time.Duration, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	last, err := CorpusSignature(dir)
	if err != nil {
		logf("corpus watch: initial signature: %v", err)
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		sig, err := CorpusSignature(dir)
		if err != nil {
			logf("corpus watch: %v", err)
			continue
		}
		if sig == last {
			continue
		}
		logf("corpus watch: change detected (%s -> %s), re-analyzing %s", last, sig, dir)
		gen, err := s.Reload(dir)
		if err != nil {
			logf("corpus watch: reload failed, keeping generation %d: %v", s.Generation(), err)
			last = sig
			continue
		}
		last = sig
		if s.cfg.Cache != nil {
			cs := s.cfg.Cache.Stats()
			logf("corpus watch: serving generation %d (fingerprint %s, cache hits %d misses %d)",
				gen, s.Snapshot().Meta.Fingerprint, cs.Hits, cs.Misses)
		} else {
			logf("corpus watch: serving generation %d (fingerprint %s)", gen, s.Snapshot().Meta.Fingerprint)
		}
	}
}
