// Package repro is a from-scratch Go reproduction of "A Study of Modern
// Linux API Usage and Compatibility: What to Support When You're
// Supporting" (Tsai, Jain, Abdul, Porter — EuroSys 2016).
//
// The library rebuilds the paper's entire measurement system: static
// analysis of ELF binaries (disassembly, call graphs, cross-library
// closure) extracts each package's system-API footprint; installation
// statistics weight the footprints into the paper's two metrics — API
// importance and weighted completeness; and a report layer regenerates
// every table and figure of the evaluation. Because the 2015 Ubuntu
// archive and its popularity survey are not redistributable, the corpus is
// synthesized: real ELF machine code planted with a usage model calibrated
// to the paper's published numbers (see DESIGN.md for the substitution
// rationale).
//
// Quick start:
//
//	study, err := repro.NewStudy(repro.DefaultConfig())
//	...
//	fmt.Println(study.ReportAll())
//
// The study object also answers the practical questions the paper poses:
// which APIs a prototype should add next (SuggestNext), how complete a
// given system-call list is (WeightedCompleteness), and what seccomp
// policy a package needs (SeccompPolicy).
package repro

import (
	"fmt"
	"sort"

	"repro/internal/anacache"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/seccomp"
)

// Config parameterizes corpus generation.
type Config = corpus.Config

// Options tune the static analysis (the ablation knobs of DESIGN.md).
type Options = footprint.Options

// AnalysisCache is the persistent content-addressed per-binary analysis
// cache; CacheStats snapshots its hit/miss/invalidation counters.
type (
	AnalysisCache = anacache.Cache
	CacheStats    = anacache.Stats
)

// OpenAnalysisCache opens (creating if needed) an analysis cache rooted
// at dir for studies analyzed under the default options. Records written
// by one process are valid for every later one as long as the binary
// bytes and footprint.AnalysisVersion are unchanged.
func OpenAnalysisCache(dir string) (*AnalysisCache, error) {
	return anacache.Open(dir, Options{})
}

// DefaultConfig is the laptop-scale standard run: 3,000 packages under the
// paper's 2,935,744-installation survey population.
func DefaultConfig() Config { return corpus.DefaultConfig() }

// Study is an analyzed corpus plus the derived metrics.
type Study struct {
	core   *core.Study
	report *report.Report
	// generation is a serving-layer snapshot counter (see Generation);
	// zero for studies that never entered a service.
	generation uint64
	// snapshotGen and fingerprint are set only on studies restored from
	// a snapshot file: the publisher-assigned file generation and the
	// stored corpus fingerprint (the restored corpus has no file bytes
	// to hash).
	snapshotGen uint64
	fingerprint string
}

// NewStudy generates a calibrated corpus and runs the full pipeline over
// it with the paper's analysis settings.
func NewStudy(cfg Config) (*Study, error) {
	return NewStudyWithOptions(cfg, Options{})
}

// LoadStudy analyzes an on-disk corpus previously written with
// Study.SaveCorpus or cmd/corpusgen. Loaded corpora carry no planted
// ground truth, only what a real archive would — the analysis runs purely
// from the binaries.
func LoadStudy(dir string) (*Study, error) {
	return LoadStudyCached(dir, nil)
}

// LoadStudyCached analyzes an on-disk corpus through an analysis cache
// (nil behaves like LoadStudy): binaries whose bytes already have a valid
// cache record skip disassembly entirely, so reloading a mostly unchanged
// corpus costs aggregation only.
func LoadStudyCached(dir string, cache *AnalysisCache) (*Study, error) {
	c, err := corpus.Load(dir)
	if err != nil {
		return nil, err
	}
	s, err := core.RunCached(c, Options{}, cache)
	if err != nil {
		return nil, fmt.Errorf("repro: analyzing corpus: %w", err)
	}
	return &Study{core: s, report: report.New(s)}, nil
}

// BinaryJob, JobResult and JobAnalyzer re-export the pipeline's
// distribution seam: a JobAnalyzer maps classified ELF binaries to their
// footprint summaries and may run anywhere — in-process, or fanned out
// over a worker fleet (internal/fleet implements one over HTTP).
type (
	BinaryJob   = core.BinaryJob
	JobResult   = core.JobResult
	JobAnalyzer = core.JobAnalyzer
)

// LoadStudyDistributed analyzes an on-disk corpus with the per-binary
// analysis phase delegated to analyze — typically a fleet coordinator's
// AnalyzeJobs. A nil analyze behaves like LoadStudyCached; the cache
// backs whatever part of the analysis runs in-process (local fallback
// included). The resulting study is identical to a single-process run
// over the same corpus.
func LoadStudyDistributed(dir string, cache *AnalysisCache, analyze JobAnalyzer) (*Study, error) {
	c, err := corpus.Load(dir)
	if err != nil {
		return nil, err
	}
	s, err := core.RunWith(c, Options{}, cache, analyze)
	if err != nil {
		return nil, fmt.Errorf("repro: analyzing corpus: %w", err)
	}
	return &Study{core: s, report: report.New(s)}, nil
}

// NewStudyDistributed generates a calibrated corpus and runs the pipeline
// with the analysis phase delegated to analyze (see LoadStudyDistributed).
func NewStudyDistributed(cfg Config, cache *AnalysisCache, analyze JobAnalyzer) (*Study, error) {
	c, err := corpus.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("repro: generating corpus: %w", err)
	}
	s, err := core.RunWith(c, Options{}, cache, analyze)
	if err != nil {
		return nil, fmt.Errorf("repro: analyzing corpus: %w", err)
	}
	return &Study{core: s, report: report.New(s)}, nil
}

// NewStudyOverCorpus runs the pipeline over an already-generated corpus
// (for example one generation of a corpus.GenerateSeries release series),
// optionally through an analysis cache and a distributed analyzer. The
// corpus is not copied; callers must not mutate it afterwards.
func NewStudyOverCorpus(c *corpus.Corpus, cache *AnalysisCache, analyze JobAnalyzer) (*Study, error) {
	s, err := core.RunWith(c, Options{}, cache, analyze)
	if err != nil {
		return nil, fmt.Errorf("repro: analyzing corpus: %w", err)
	}
	return &Study{core: s, report: report.New(s)}, nil
}

// NewStudyCached generates a calibrated corpus and runs the pipeline
// through an analysis cache (nil behaves like NewStudy).
func NewStudyCached(cfg Config, cache *AnalysisCache) (*Study, error) {
	c, err := corpus.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("repro: generating corpus: %w", err)
	}
	s, err := core.RunCached(c, Options{}, cache)
	if err != nil {
		return nil, fmt.Errorf("repro: analyzing corpus: %w", err)
	}
	return &Study{core: s, report: report.New(s)}, nil
}

// CacheStats reports the analysis-cache counters for the cache this study
// was built against (zero-valued for uncached studies).
func (s *Study) CacheStats() CacheStats {
	if s.core.Cache == nil {
		return CacheStats{}
	}
	return s.core.Cache.Stats()
}

// SaveCorpus writes the study's corpus to a directory for later
// re-analysis or external inspection (readelf, objdump).
func (s *Study) SaveCorpus(dir string) error { return s.core.Corpus.Save(dir) }

// NewStudyWithOptions runs the pipeline with explicit analysis options.
func NewStudyWithOptions(cfg Config, opts Options) (*Study, error) {
	c, err := corpus.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("repro: generating corpus: %w", err)
	}
	s, err := core.Run(c, opts)
	if err != nil {
		return nil, fmt.Errorf("repro: analyzing corpus: %w", err)
	}
	return &Study{core: s, report: report.New(s)}, nil
}

// Core exposes the underlying study for advanced use.
func (s *Study) Core() *core.Study { return s.core }

// Metrics exposes the shared report computations.
func (s *Study) Metrics() *report.Report { return s.report }

// Importance returns the measured API importance of a system call
// (0 if unused).
func (s *Study) Importance(syscall string) float64 {
	return s.report.Importance[linuxapi.Sys(syscall)]
}

// UnweightedImportance returns the fraction of packages using a syscall.
func (s *Study) UnweightedImportance(syscall string) float64 {
	return s.report.Unweighted[linuxapi.Sys(syscall)]
}

// WeightedCompleteness evaluates a prototype described by its supported
// system-call names (§2.2).
func (s *Study) WeightedCompleteness(syscalls []string) float64 {
	return metrics.WeightedCompleteness(s.core.Input,
		core.SupportedSyscallSet(syscalls),
		metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
}

// Suggestion is one recommended API addition. The JSON tags are the wire
// format of the query service's /v1/suggest endpoint.
type Suggestion struct {
	Syscall string `json:"syscall"`
	// Importance is the API's measured importance.
	Importance float64 `json:"importance"`
	// CompletenessAfter is the weighted completeness reached once every
	// suggestion up to and including this one is implemented.
	CompletenessAfter float64 `json:"completeness_after"`
}

// SuggestNext returns the k most valuable system calls missing from the
// given supported set — the "which APIs would increase the range of
// supported applications" question of §1.
func (s *Study) SuggestNext(supported []string, k int) []Suggestion {
	have := make(map[string]bool, len(supported))
	for _, name := range supported {
		have[name] = true
	}
	var out []Suggestion
	var order []linuxapi.API
	for _, pt := range s.report.Path {
		if len(out) >= k {
			break
		}
		if have[pt.API.Name] {
			continue
		}
		order = append(order, pt.API)
		out = append(out, Suggestion{Syscall: pt.API.Name, Importance: pt.Importance})
	}
	if len(out) == 0 {
		return out
	}
	curve := metrics.CompletenessCurve(s.core.Input, core.SupportedSyscallSet(supported), order,
		metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
	for i := range out {
		out[i].CompletenessAfter = curve[i+1]
	}
	return out
}

// GreedyPath returns the full most-important-first ordering with
// cumulative completeness (Figure 3).
func (s *Study) GreedyPath() []metrics.PathPoint {
	return append([]metrics.PathPoint(nil), s.report.Path...)
}

// FullAPIPath ranks every measured API — system calls, vectored opcodes,
// pseudo-files and libc symbols — on one greedy path (§3.2's
// generalization beyond the system-call table).
func (s *Study) FullAPIPath() []metrics.PathPoint {
	return metrics.GreedyPathAll(s.core.Input)
}

// PackageFootprint returns the measured syscall footprint of a package,
// sorted by name.
func (s *Study) PackageFootprint(pkg string) []string {
	fp := s.core.Input.Footprints[pkg]
	if fp == nil {
		return nil
	}
	apis := linuxapi.InternedAPIs()
	var out []string
	fp.ForEach(func(id uint32) {
		if api := apis[id]; api.Kind == linuxapi.KindSyscall {
			out = append(out, api.Name)
		}
	})
	sort.Strings(out)
	return out
}

// Packages lists all package names in the corpus.
func (s *Study) Packages() []string { return s.core.Corpus.Repo.Names() }

// SeccompPolicy builds a seccomp-BPF sandbox policy from a package's
// measured footprint (§6) and verifies it with the built-in interpreter.
func (s *Study) SeccompPolicy(pkg string, denyAction uint32) (*seccomp.Policy, seccomp.Program, error) {
	fp := s.core.Input.Footprints[pkg]
	if fp == nil {
		return nil, nil, fmt.Errorf("repro: unknown package %q", pkg)
	}
	pol := seccomp.NewPolicy(fp.ToSet(), denyAction)
	prog, err := pol.Compile()
	if err != nil {
		return nil, nil, err
	}
	if err := pol.Verify(); err != nil {
		return nil, nil, err
	}
	return pol, prog, nil
}

// AnalyzeBinary runs the footprint extraction on an arbitrary ELF binary
// (for example a real one from the host system) and returns its direct
// system-call footprint, unresolved-site count, and pseudo-file paths.
// Imports are resolved against the study's synthetic libc where names
// match.
func (s *Study) AnalyzeBinary(path string, data []byte) (*footprint.Result, error) {
	bin, err := elfx.Open(path, data)
	if err != nil {
		return nil, err
	}
	a := footprint.Analyze(bin, s.core.Opts)
	return s.core.Resolver.Footprint(a), nil
}

// StrippedLibc runs §3.5's libc restructuring estimate at the given
// importance threshold.
func (s *Study) StrippedLibc(threshold float64) compat.StrippedLibc {
	return compat.AnalyzeStrippedLibc(s.core.Input, s.report.Importance,
		s.libcSymbolSizes(), threshold)
}

func (s *Study) libcSymbolSizes() map[string]uint64 {
	sizes := make(map[string]uint64)
	pkg := s.core.Corpus.Repo.Get("libc6")
	if pkg == nil {
		return sizes
	}
	for _, f := range pkg.Files {
		if f.Path != "/lib/x86_64-linux-gnu/libc.so.6" {
			continue
		}
		bin, err := elfx.Open(f.Path, f.Data)
		if err != nil {
			return sizes
		}
		for _, sym := range bin.Funcs {
			sizes[sym.Name] = sym.Size
		}
	}
	return sizes
}

// VectoredSeccompPolicy builds a sandbox that additionally restricts the
// vectored system calls (ioctl, fcntl, prctl) to the operation codes in
// the package's footprint — §3.3's attack-surface reduction.
func (s *Study) VectoredSeccompPolicy(pkg string, denyAction uint32) (*seccomp.VectoredPolicy, seccomp.Program, error) {
	fp := s.core.Input.Footprints[pkg]
	if fp == nil {
		return nil, nil, fmt.Errorf("repro: unknown package %q", pkg)
	}
	vp := seccomp.NewVectoredPolicy(fp.ToSet(), denyAction)
	prog, err := vp.Compile()
	if err != nil {
		return nil, nil, err
	}
	if err := vp.Verify(); err != nil {
		return nil, nil, err
	}
	return vp, prog, nil
}

// APIDelta records how one API's standing changed between two studies —
// the longitudinal comparison the paper lists as future work ("this data
// set does not include sufficient historical data to compare changes to
// the API usage over time").
type APIDelta struct {
	API                   string
	Kind                  string
	OldImportance         float64
	NewImportance         float64
	OldUnweighted         float64
	NewUnweighted         float64
	Appeared, Disappeared bool
}

// Diff compares this study (the "new release") against an older one and
// returns the APIs whose importance moved by at least threshold, sorted by
// absolute movement.
func (s *Study) Diff(old *Study, threshold float64) []APIDelta {
	type key = linuxapi.API
	seen := make(map[key]bool)
	var out []APIDelta
	add := func(api key) {
		if seen[api] {
			return
		}
		seen[api] = true
		oi, oOK := old.report.Importance[api]
		ni, nOK := s.report.Importance[api]
		d := APIDelta{
			API: api.Name, Kind: api.Kind.String(),
			OldImportance: oi, NewImportance: ni,
			OldUnweighted: old.report.Unweighted[api],
			NewUnweighted: s.report.Unweighted[api],
			Appeared:      !oOK && nOK,
			Disappeared:   oOK && !nOK,
		}
		if d.Appeared || d.Disappeared || abs(ni-oi) >= threshold {
			out = append(out, d)
		}
	}
	for api := range s.report.Importance {
		add(api)
	}
	for api := range old.report.Importance {
		add(api)
	}
	sort.Slice(out, func(i, j int) bool {
		di := abs(out[i].NewImportance - out[i].OldImportance)
		dj := abs(out[j].NewImportance - out[j].OldImportance)
		if di != dj {
			return di > dj
		}
		if out[i].API != out[j].API {
			return out[i].API < out[j].API
		}
		// A syscall and a libc symbol can share a name and tie exactly
		// (e.g. syscall fork vs libcsym fork) — break on kind so the
		// report is stable across map iteration orders.
		return out[i].Kind < out[j].Kind
	})
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Emulate runs a package's executables in the user-mode emulator (the
// §2.3 dynamic cross-check) and returns one trace per executable. Every
// trace's API set is guaranteed — and verified here — to be contained in
// the static footprint.
func (s *Study) Emulate(pkg string) ([]*emu.Trace, error) {
	p := s.core.PackageFor(pkg)
	if p == nil {
		return nil, fmt.Errorf("repro: unknown package %q", pkg)
	}
	static := s.core.Input.Footprints[pkg]
	// The study keeps library summaries; the emulator runs the libraries'
	// images, opened here on first use.
	s.core.EnsureEmulatable()
	m := emu.New(s.core.Resolver)
	var traces []*emu.Trace
	for _, f := range p.Files {
		class, _ := elfx.Classify(f.Data)
		if class != elfx.ClassELFExec && class != elfx.ClassELFStatic {
			continue
		}
		bin, err := elfx.Open(f.Path, f.Data)
		if err != nil {
			return nil, err
		}
		tr, err := m.RunImage(bin)
		if err != nil {
			return nil, err
		}
		for api := range tr.APIs() {
			if !static.Contains(api) {
				return nil, fmt.Errorf("repro: %s: dynamic %v outside static footprint", f.Path, api)
			}
		}
		traces = append(traces, tr)
	}
	if len(traces) == 0 {
		return nil, fmt.Errorf("repro: package %q has no executables", pkg)
	}
	return traces, nil
}

// EvaluateSystems runs Table 6.
func (s *Study) EvaluateSystems() []compat.Result {
	return compat.EvaluateAll(s.core.Input, s.report.Path)
}

// EvaluateLibcVariants runs Table 7.
func (s *Study) EvaluateLibcVariants() []compat.LibcResult {
	return compat.EvaluateAllLibc(s.core.Input, s.report.Importance)
}

// ReportAll renders every table and figure in paper order.
func (s *Study) ReportAll() string {
	return s.report.All(s.StrippedLibc(0.90))
}

// Seccomp deny actions re-exported for callers of SeccompPolicy.
const (
	SeccompKill  = seccomp.RetKill
	SeccompErrno = seccomp.RetErrno
	SeccompAllow = seccomp.RetAllow
)
