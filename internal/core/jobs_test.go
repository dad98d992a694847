package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/anacache"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/footprint"
)

// binaryJobs lists the ELF files of c whose class keep admits, as
// analysis jobs.
func binaryJobs(c *corpus.Corpus, keep func(elfx.FileClass) bool) []BinaryJob {
	var jobs []BinaryJob
	for _, name := range c.Repo.Names() {
		for _, f := range c.Repo.Get(name).Files {
			if class, _ := elfx.Classify(f.Data); keep(class) {
				jobs = append(jobs, BinaryJob{
					Pkg: name, Path: f.Path, Data: f.Data, Lib: class == elfx.ClassELFLib,
				})
			}
		}
	}
	return jobs
}

// retainedHeap measures the heap that run's result holds once the
// garbage it made along the way is collected.
func retainedHeap(t *testing.T, run func() any) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := run()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// keepEveryAnalysis is the keep-everything pipeline: AnalyzeJobsLocal's
// results with every binary's full analysis held alive beside them, as
// analyses were once held until the study completed.
func keepEveryAnalysis(jobs []BinaryJob) any {
	results := AnalyzeJobsLocal(jobs, footprint.Options{}, nil)
	analyses := make([]*footprint.Analysis, 0, len(jobs))
	for _, j := range jobs {
		if bin, err := elfx.Open(j.Path, j.Data); err == nil {
			analyses = append(analyses, footprint.Analyze(bin, footprint.Options{}))
		}
	}
	return []any{results, analyses}
}

// bulkCorpus gives its binaries realistic .text volume, so that a kept
// analysis shows in the retained heap.
func bulkCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{
		Packages: 40, Installations: 100000, Seed: 29, CodeBulk: 48 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAnalyzeJobsLocalRetainsOnlyLibAnalyses checks AnalyzeJobsLocal's
// memory contract directly. Libraries were once its exception, kept as
// full analyses for the emulator; the emulator now opens library images
// on demand, so of a library, as of an executable, only the summary
// stays. Every job must come back as a valid summary of its own binary,
// and the library results must retain well under half the heap of the
// library analyses they no longer keep.
func TestAnalyzeJobsLocalRetainsOnlyLibAnalyses(t *testing.T) {
	c := bulkCorpus(t)
	jobs := binaryJobs(c, func(class elfx.FileClass) bool {
		return class == elfx.ClassELFLib || class == elfx.ClassELFExec || class == elfx.ClassELFStatic
	})
	results := AnalyzeJobsLocal(jobs, footprint.Options{}, nil)
	var libJobs []BinaryJob
	execs := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", jobs[i].Path, r.Err)
		}
		if r.Summary == nil {
			t.Fatalf("%s: no summary", jobs[i].Path)
		}
		if err := r.Summary.Check(); err != nil {
			t.Errorf("%s: %v", jobs[i].Path, err)
		}
		if r.Summary.Path != jobs[i].Path || r.Summary.Lib != jobs[i].Lib {
			t.Errorf("%s: summary of %s (lib %v), want lib %v",
				jobs[i].Path, r.Summary.Path, r.Summary.Lib, jobs[i].Lib)
		}
		if jobs[i].Lib {
			libJobs = append(libJobs, jobs[i])
		} else {
			execs++
		}
	}
	if len(libJobs) == 0 || execs == 0 {
		t.Fatalf("degenerate corpus: %d libs, %d execs", len(libJobs), execs)
	}
	lean := retainedHeap(t, func() any { return AnalyzeJobsLocal(libJobs, footprint.Options{}, nil) })
	fat := retainedHeap(t, func() any { return keepEveryAnalysis(libJobs) })
	if lean == 0 || fat == 0 {
		t.Skipf("heap measurement degenerate (lean=%d fat=%d)", lean, fat)
	}
	if lean*2 > fat {
		t.Errorf("library summaries retain %d bytes, kept library analyses %d; want at least a 2x win",
			lean, fat)
	}
	t.Logf("retained heap of %d libraries: %d bytes lean vs %d bytes with analyses kept", len(libJobs), lean, fat)
}

// TestRunReleasesExecAnalyses asserts the memory win of dropping
// executable analyses at summarization time: an analysis keeps its
// binary, call graph and per-function maps, and executables vastly
// outnumber libraries, so summary-only results for executables must
// retain well under half the heap of the keep-everything pipeline.
func TestRunReleasesExecAnalyses(t *testing.T) {
	jobs := binaryJobs(bulkCorpus(t), func(class elfx.FileClass) bool {
		return class == elfx.ClassELFExec || class == elfx.ClassELFStatic
	})
	lean := retainedHeap(t, func() any { return AnalyzeJobsLocal(jobs, footprint.Options{}, nil) })
	fat := retainedHeap(t, func() any { return keepEveryAnalysis(jobs) })
	if lean == 0 || fat == 0 {
		t.Skipf("heap measurement degenerate (lean=%d fat=%d)", lean, fat)
	}
	if lean*2 > fat {
		t.Errorf("summary-only results retain %d bytes, keep-everything retains %d; want at least a 2x win",
			lean, fat)
	}
	t.Logf("retained heap: %d bytes lean vs %d bytes with exec analyses kept", lean, fat)
}

// A cold study keeps no analysis: AnalyzeJobsLocal returns every binary,
// library or executable, as its summary alone, and the emulator opens
// library images only on demand. So a cold study must retain no more
// heap, within a small margin, than its warm twin, whose summaries all
// came from the analysis cache. CodeBulk gives the binaries realistic
// .text volume, so kept library analyses would show: while cold studies
// kept them, this corpus's cold study retained 11.6 MiB against the warm
// twin's 6.7 MiB.
func TestColdStudyRetainsNoAnalyses(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{
		Packages: 150, Installations: 1 << 20, Seed: 42, CodeBulk: 24 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	retained := func() (uint64, anacache.Stats) {
		cache, err := anacache.Open(dir, footprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := RunCached(c, footprint.Options{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		if after.HeapAlloc < before.HeapAlloc {
			return 0, cache.Stats()
		}
		return after.HeapAlloc - before.HeapAlloc, cache.Stats()
	}
	cold, st := retained()
	if st.Hits != 0 || st.Writes == 0 {
		t.Fatalf("cold study cache stats %+v, want misses written", st)
	}
	warm, st := retained()
	if st.Misses != 0 || st.Hits == 0 {
		t.Fatalf("warm study cache stats %+v, want hits only", st)
	}
	if cold == 0 || warm == 0 {
		t.Skipf("heap measurement degenerate (cold=%d warm=%d)", cold, warm)
	}
	if cold > warm+warm/4 {
		t.Errorf("a cold study retains %d bytes, its warm twin %d; want within 25%%", cold, warm)
	}
	t.Logf("retained heap: cold study %d bytes, warm study %d bytes", cold, warm)
}

// failingAnalyzer delegates to the local analyzer, then fails the first n
// jobs the way a truly malformed archive member would.
func failingAnalyzer(n int) JobAnalyzer {
	return func(jobs []BinaryJob, opts footprint.Options) []JobResult {
		results := AnalyzeJobsLocal(jobs, opts, nil)
		for i := 0; i < n && i < len(results); i++ {
			results[i] = JobResult{Err: errors.New("elfx: truncated section header")}
		}
		return results
	}
}

// TestRunRecordsSkippedSamples drives more failures through the pipeline
// than the sample cap and checks the bookkeeping: every failure counted,
// at most MaxSkippedSamples witnesses kept, in job order, each carrying
// package, path and error text.
func TestRunRecordsSkippedSamples(t *testing.T) {
	c := cacheTestCorpus(t)
	fail := MaxSkippedSamples + 5
	s, err := RunWith(c, footprint.Options{}, nil, failingAnalyzer(fail))
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.SkippedFiles != fail {
		t.Fatalf("SkippedFiles = %d, want %d", s.Stats.SkippedFiles, fail)
	}
	if len(s.Stats.SkippedSamples) != MaxSkippedSamples {
		t.Fatalf("kept %d samples, want cap %d", len(s.Stats.SkippedSamples), MaxSkippedSamples)
	}
	for i, sm := range s.Stats.SkippedSamples {
		if sm.Pkg == "" || sm.Path == "" {
			t.Errorf("sample %d missing identity: %+v", i, sm)
		}
		if sm.Err != "elfx: truncated section header" {
			t.Errorf("sample %d error = %q", i, sm.Err)
		}
	}

	// No failures, no samples.
	clean, err := RunWith(c, footprint.Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.SkippedFiles != 0 || len(clean.Stats.SkippedSamples) != 0 {
		t.Errorf("clean run recorded skips: %d files, %d samples",
			clean.Stats.SkippedFiles, len(clean.Stats.SkippedSamples))
	}
}

// TestRunWithLengthMismatch rejects an analyzer that loses or invents
// results instead of silently mis-attributing them.
func TestRunWithLengthMismatch(t *testing.T) {
	c := cacheTestCorpus(t)
	_, err := RunWith(c, footprint.Options{}, nil,
		func(jobs []BinaryJob, opts footprint.Options) []JobResult {
			return make([]JobResult, len(jobs)+1)
		})
	if err == nil {
		t.Fatal("mismatched result count accepted")
	}
}
