// Package core orchestrates the full measurement pipeline of the paper:
// classify every file of every package (Figure 1), statically analyze each
// ELF binary (disassembly → call graph → footprint extraction),
// resolve cross-library closures the way the paper's recursive queries do,
// attribute interpreted scripts to their interpreter's footprint, and
// assemble the metrics input (package footprints × installation survey)
// that every table and figure is computed from.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/anacache"
	"repro/internal/apt"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// FileCensus aggregates Figure 1's classification counts.
type FileCensus struct {
	// ELFExec / ELFLib / ELFStatic split the ELF binaries.
	ELFExec, ELFLib, ELFStatic int
	// Scripts counts interpreted files by interpreter program name.
	Scripts map[string]int
	// Other counts unclassifiable files.
	Other int
}

// Total returns the number of classified files.
func (c *FileCensus) Total() int {
	n := c.ELFExec + c.ELFLib + c.ELFStatic + c.Other
	for _, v := range c.Scripts {
		n += v
	}
	return n
}

// ELF returns the number of ELF binaries.
func (c *FileCensus) ELF() int { return c.ELFExec + c.ELFLib + c.ELFStatic }

// SkippedFile is one recorded witness of a file that classified as ELF
// but failed to parse: which package shipped it, where, and why the
// parser rejected it.
type SkippedFile struct {
	Pkg  string `json:"pkg"`
	Path string `json:"path"`
	Err  string `json:"error"`
}

// MaxSkippedSamples bounds Stats.SkippedSamples: enough witnesses to
// debug a rotten archive, without letting a fully corrupt one bloat the
// study.
const MaxSkippedSamples = 20

// Stats carries the pipeline-level counters the paper reports in §6/§7.
type Stats struct {
	Census FileCensus
	// TotalSites and UnresolvedSites census the system-call instruction
	// sites (§7: 2,454 unresolved, 4% of sites).
	TotalSites, UnresolvedSites int
	// DirectSyscallExecs/Libs count binaries that issue system calls
	// directly rather than through libc (§7: 7,259 and 2,752).
	DirectSyscallExecs, DirectSyscallLibs int
	// DistinctFootprints and UniqueFootprints summarize §6's observation
	// that a third of applications have a unique system-call footprint.
	Executables, DistinctFootprints, UniqueFootprints int
	// SkippedFiles counts files that classified as ELF but failed to
	// parse; a real archive contains some junk, and the pipeline skips it
	// rather than aborting the study. SkippedSamples keeps the first
	// MaxSkippedSamples (package, path, error) witnesses, in corpus
	// order.
	SkippedFiles   int
	SkippedSamples []SkippedFile
}

// Study is the analyzed corpus: everything the reports need.
type Study struct {
	Corpus   *corpus.Corpus
	Input    *metrics.Input
	Resolver *footprint.Resolver
	// BinaryDirect maps "package/path" to the APIs that binary's own code
	// requests (for the attribution tables).
	BinaryDirect map[string]footprint.Set
	Stats        Stats
	Opts         footprint.Options
	// Cache is the analysis cache the study was built against (nil for
	// uncached runs). Counters on it cover this run and any other run
	// sharing the cache.
	Cache *anacache.Cache

	// pendingEmu lists every shared library that produced a summary,
	// however the study was built (cold, from the cache or by a fleet):
	// the summaries aggregate footprints, and the emulator needs the
	// libraries' ELF images, opened lazily by EnsureEmulatable. The study
	// keeps no analysis.
	pendingEmu []pendingLib
	emuMu      sync.Mutex
}

type pendingLib struct {
	path string
	data []byte
}

// Run executes the pipeline over a generated corpus.
func Run(c *corpus.Corpus, opts footprint.Options) (*Study, error) {
	return RunCached(c, opts, nil)
}

// RunCached executes the pipeline, consulting cache (may be nil) before
// disassembling each binary: a valid record substitutes for the whole
// disassembly → call graph → extraction chain, so an incremental re-run
// over a mostly unchanged corpus re-analyzes only changed or new
// binaries. The cross-binary aggregation (library closures, package
// footprints, metrics) is always recomputed — it is cheap and depends on
// the corpus as a whole.
func RunCached(c *corpus.Corpus, opts footprint.Options, cache *anacache.Cache) (*Study, error) {
	return RunWith(c, opts, cache, nil)
}

// BinaryJob is one ELF binary queued for per-binary analysis — the unit
// of work the pipeline fans out, whether to the in-process worker pool
// or to a fleet of remote shard workers.
type BinaryJob struct {
	Pkg  string
	Path string
	Data []byte
	Lib  bool
}

// JobResult is the outcome of one BinaryJob. Exactly one of Summary or
// Err is set.
type JobResult struct {
	Summary *footprint.Summary
	Err     error
}

// JobAnalyzer maps every job to exactly one result, index for index.
// RunWith falls back to AnalyzeJobsLocal when none is supplied; the
// fleet coordinator is the distributed implementation.
type JobAnalyzer func(jobs []BinaryJob, opts footprint.Options) []JobResult

// AnalyzeJobsLocal analyzes jobs in process on all cores (the paper's
// own run took three days over 30,976 packages — §7), consulting cache
// (may be nil) before disassembling each binary. Every binary, library
// or executable, comes back as its Summary alone; its analysis is
// garbage as soon as it is summarized.
func AnalyzeJobsLocal(jobs []BinaryJob, opts footprint.Options, cache *anacache.Cache) []JobResult {
	results := make([]JobResult, len(jobs))
	forEach(len(jobs), func(i int) {
		j := jobs[i]
		if cache != nil {
			if sum, ok := cache.Get(j.Data); ok {
				results[i].Summary = sum
				return
			}
		}
		bin, err := elfx.Open(j.Path, j.Data)
		if err != nil {
			// Malformed ELF: skip the file, keep the study going.
			// Failures are never cached, so a repaired file is picked up
			// by the next run.
			results[i].Err = err
			return
		}
		results[i].Summary = footprint.Summarize(footprint.Analyze(bin, opts))
		if cache != nil {
			// Best effort: a failed write only costs a future
			// re-analysis, and the cache counts it.
			_ = cache.Put(j.Data, results[i].Summary)
		}
	})
	return results
}

// forEach calls fn(i) for every i in [0, n) on a pool of one worker per
// core.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.NumCPU(), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunWith executes the pipeline with a pluggable per-binary analyzer: a
// nil analyze runs AnalyzeJobsLocal, a fleet coordinator distributes the
// same jobs over remote workers. The aggregation consumes only the
// returned summaries, so every analyzer that returns correct summaries
// yields an identical study.
func RunWith(c *corpus.Corpus, opts footprint.Options, cache *anacache.Cache, analyze JobAnalyzer) (*Study, error) {
	s := &Study{
		Corpus:       c,
		Resolver:     footprint.NewResolver(),
		BinaryDirect: make(map[string]footprint.Set),
		Opts:         opts,
		Cache:        cache,
	}
	s.Stats.Census.Scripts = make(map[string]int)

	names := c.Repo.Names()

	// Disassembly and extraction dominate the pipeline; binaries are
	// independent, so they fan out as jobs. Classification happens
	// exactly once, here: each file's record carries its class (and
	// interpreter, for scripts) into the aggregation passes.
	var jobs []BinaryJob
	recsByPkg := make(map[string][]fileRecord, len(names))
	for _, name := range names {
		pkg := c.Repo.Get(name)
		recs := make([]fileRecord, 0, len(pkg.Files))
		for _, f := range pkg.Files {
			class, interp := elfx.Classify(f.Data)
			rec := fileRecord{path: f.Path, class: class, interp: interp, job: -1}
			switch class {
			case elfx.ClassELFLib:
				rec.job = len(jobs)
				jobs = append(jobs, BinaryJob{Pkg: name, Path: f.Path, Data: f.Data, Lib: true})
			case elfx.ClassELFExec, elfx.ClassELFStatic:
				rec.job = len(jobs)
				jobs = append(jobs, BinaryJob{Pkg: name, Path: f.Path, Data: f.Data})
			}
			recs = append(recs, rec)
		}
		recsByPkg[name] = recs
	}
	var results []JobResult
	if analyze == nil {
		results = AnalyzeJobsLocal(jobs, opts, cache)
	} else {
		results = analyze(jobs, opts)
		if len(results) != len(jobs) {
			return nil, fmt.Errorf("core: analyzer returned %d results for %d jobs", len(results), len(jobs))
		}
	}
	for i := range results {
		if err := results[i].Err; err != nil {
			s.Stats.SkippedFiles++
			if len(s.Stats.SkippedSamples) < MaxSkippedSamples {
				s.Stats.SkippedSamples = append(s.Stats.SkippedSamples, SkippedFile{
					Pkg: jobs[i].Pkg, Path: jobs[i].Path, Err: err.Error(),
				})
			}
		}
	}

	// Pass 1: register every shared library's summary with the resolver
	// so imports resolve regardless of package analysis order, and note
	// its bytes for the emulator, which opens the images only when asked
	// (EnsureEmulatable).
	for i := range jobs {
		j := &jobs[i]
		sum := results[i].Summary
		if sum == nil {
			continue // skipped as malformed during analysis
		}
		if j.Lib {
			s.Resolver.AddSummary(sum)
			s.pendingEmu = append(s.pendingEmu, pendingLib{path: j.Path, data: j.Data})
		}
	}

	// Pass 2a: resolve every analyzed binary's aggregated footprint,
	// fanned out across the worker pool. Results are pure per-binary
	// bitsets; all Stats/map writes stay on this goroutine, below.
	bitResults := make([]*footprint.BitResult, len(jobs))
	forEach(len(jobs), func(i int) {
		if sum := results[i].Summary; sum != nil {
			bitResults[i] = s.Resolver.FootprintBits(sum)
		}
	})

	// Pass 2b: collect per-binary results into package footprints, in
	// corpus order.
	pkgFootprints := make(map[string]*footprint.BitSet, len(names))
	pkgDirect := make(map[string]*footprint.BitSet, len(names))
	scriptInterps := make(map[string][]string) // package -> interpreter names
	execFootprintKeys := make(map[string]int)
	sysMask := footprint.KindMask(linuxapi.KindSyscall)

	for _, name := range names {
		fp := footprint.NewBitSet()
		direct := footprint.NewBitSet()
		for _, rec := range recsByPkg[name] {
			switch rec.class {
			case elfx.ClassScript:
				s.Stats.Census.Scripts[rec.interp]++
				scriptInterps[name] = append(scriptInterps[name], rec.interp)
				continue
			case elfx.ClassELFLib:
				s.Stats.Census.ELFLib++
				// Libraries contribute through executables that link them
				// (§2: a package's footprint is the union over its
				// standalone executables), but their direct usage matters
				// for the attribution tables.
				br := bitResults[rec.job]
				if br == nil {
					continue // skipped as malformed during analysis
				}
				s.BinaryDirect[name+"/"+rec.path] = directSet(br)
				s.Stats.TotalSites += br.Sites
				s.Stats.UnresolvedSites += br.Unresolved
				if results[rec.job].Summary.DirectSyscall {
					s.Stats.DirectSyscallLibs++
				}
				continue
			case elfx.ClassELFExec, elfx.ClassELFStatic:
				if rec.class == elfx.ClassELFStatic {
					s.Stats.Census.ELFStatic++
				} else {
					s.Stats.Census.ELFExec++
				}
			default:
				s.Stats.Census.Other++
				continue
			}
			br := bitResults[rec.job]
			if br == nil {
				continue // skipped as malformed during analysis
			}
			fp.UnionWith(br.APIs)
			direct.UnionWith(br.Direct)
			for _, api := range br.Strings {
				// The corpus is trusted input: verbatim pseudo-paths may
				// intern here (unlike the service's ad-hoc upload path).
				id := linuxapi.InternID(api)
				fp.AddID(id)
				direct.AddID(id)
			}
			s.BinaryDirect[name+"/"+rec.path] = directSet(br)
			s.Stats.TotalSites += br.Sites
			s.Stats.UnresolvedSites += br.Unresolved
			if results[rec.job].Summary.DirectSyscall {
				s.Stats.DirectSyscallExecs++
			}
			s.Stats.Executables++
			execFootprintKeys[br.APIs.MaskedKey(sysMask)]++
		}
		pkgFootprints[name] = fp
		pkgDirect[name] = direct
	}

	// Pass 3: scripts inherit the interpreter package's footprint (§2.3:
	// "the system call footprint of the interpreter ... over-approximates
	// the expected footprint of the applications").
	for _, name := range names {
		for _, interp := range scriptInterps[name] {
			ipkg, ok := c.InterpreterPkg[interp]
			if !ok {
				continue
			}
			if ifp, ok := pkgFootprints[ipkg]; ok {
				pkgFootprints[name].UnionWith(ifp)
			}
		}
	}

	s.Stats.DistinctFootprints = len(execFootprintKeys)
	for _, n := range execFootprintKeys {
		if n == 1 {
			s.Stats.UniqueFootprints++
		}
	}

	s.Input = &metrics.Input{
		Repo:       c.Repo,
		Survey:     c.Survey,
		Footprints: pkgFootprints,
		Direct:     pkgDirect,
	}
	return s, nil
}

// fileRecord carries one classified file through the aggregation
// passes, so elfx.Classify runs exactly once per file.
type fileRecord struct {
	path   string
	class  elfx.FileClass
	interp string
	// job indexes the job/result slices; -1 for files that were not
	// queued (scripts, unclassifiable data).
	job int
}

// directSet materializes a BitResult's direct footprint as the boundary
// map type, pseudo-file strings included (strings are direct by
// definition: they come from the binary's own .rodata).
func directSet(br *footprint.BitResult) footprint.Set {
	out := br.Direct.ToSet()
	for _, api := range br.Strings {
		out.Add(api)
	}
	return out
}

// PackageFor returns the package metadata for a name.
func (s *Study) PackageFor(name string) *apt.Package { return s.Corpus.Repo.Get(name) }

// EnsureEmulatable opens the ELF image of every shared library the study
// summarized and registers it with the resolver, so the user-mode
// emulator can execute across PLT boundaries. It disassembles nothing:
// the emulator decodes what it runs. The first call pays the opening,
// and only when (and if) emulation is requested; later calls do
// nothing.
func (s *Study) EnsureEmulatable() {
	s.emuMu.Lock()
	defer s.emuMu.Unlock()
	for _, p := range s.pendingEmu {
		bin, err := elfx.Open(p.path, p.data)
		if err != nil {
			// A summary for an unparseable file cannot exist (failures are
			// never summarized or cached); if the bytes rotted since,
			// emulation simply fails to resolve into this library, as it
			// would for any missing dependency.
			continue
		}
		s.Resolver.AddImage(bin)
	}
	s.pendingEmu = nil
}

// SupportedSyscallSet builds a footprint.Set of syscall APIs from names,
// convenient for completeness queries.
func SupportedSyscallSet(names []string) footprint.Set {
	set := make(footprint.Set, len(names))
	for _, n := range names {
		set.Add(linuxapi.Sys(n))
	}
	return set
}
