package core

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/footprint"
)

// TestAnalyzeJobsLocalRetainsOnlyLibAnalyses checks the memory contract
// directly: executables come back summary-only, shared libraries keep the
// full analysis the emulator needs.
func TestAnalyzeJobsLocalRetainsOnlyLibAnalyses(t *testing.T) {
	c := cacheTestCorpus(t)
	var jobs []BinaryJob
	for _, name := range c.Repo.Names() {
		pkg := c.Repo.Get(name)
		for _, f := range pkg.Files {
			switch class, _ := elfx.Classify(f.Data); class {
			case elfx.ClassELFLib:
				jobs = append(jobs, BinaryJob{Pkg: name, Path: f.Path, Data: f.Data, Lib: true})
			case elfx.ClassELFExec, elfx.ClassELFStatic:
				jobs = append(jobs, BinaryJob{Pkg: name, Path: f.Path, Data: f.Data})
			}
		}
	}
	results := AnalyzeJobsLocal(jobs, footprint.Options{}, nil)
	var libs, execs int
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("%s: %v", jobs[i].Path, results[i].Err)
		}
		if jobs[i].Lib {
			libs++
			if results[i].Analysis == nil {
				t.Errorf("%s: library lost its analysis", jobs[i].Path)
			}
		} else {
			execs++
			if results[i].Analysis != nil {
				t.Errorf("%s: executable retained its analysis", jobs[i].Path)
			}
		}
	}
	if libs == 0 || execs == 0 {
		t.Fatalf("degenerate corpus: %d libs, %d execs", libs, execs)
	}
}

// retainAllAnalyzer is the pre-optimization behavior: every binary's full
// instruction-level analysis stays alive until the study completes.
func retainAllAnalyzer(jobs []BinaryJob, opts footprint.Options) []JobResult {
	results := AnalyzeJobsLocal(jobs, opts, nil)
	for i := range results {
		if results[i].Err != nil || jobs[i].Lib {
			continue
		}
		bin, err := elfx.Open(jobs[i].Path, jobs[i].Data)
		if err != nil {
			continue
		}
		results[i].Analysis = footprint.Analyze(bin, opts)
	}
	return results
}

// retainedResultsHeap measures the heap held by an analyzer's result set
// — the state that, in the pre-optimization pipeline, stayed alive from
// each binary's analysis until the whole study completed.
func retainedResultsHeap(t *testing.T, jobs []BinaryJob, analyze JobAnalyzer) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	results := analyze(jobs, footprint.Options{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(results)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestRunReleasesExecAnalyses asserts the memory win of dropping
// executable analyses at summarization time: an analysis keeps its
// binary, call graph and per-function maps (no instructions; those are
// scanned during the decode pass), and executables vastly outnumber
// libraries, so summary-only results for executables must retain well
// under half the heap of the old keep-everything behavior (about a
// quarter on this corpus). CodeBulk gives the binaries realistic .text
// volume.
func TestRunReleasesExecAnalyses(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{
		Packages: 40, Installations: 100000, Seed: 29, CodeBulk: 48 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only executables: libraries keep their analyses by design (the
	// emulator replays them), so the win to isolate is the exec
	// population's.
	var jobs []BinaryJob
	for _, name := range c.Repo.Names() {
		pkg := c.Repo.Get(name)
		for _, f := range pkg.Files {
			switch class, _ := elfx.Classify(f.Data); class {
			case elfx.ClassELFExec, elfx.ClassELFStatic:
				jobs = append(jobs, BinaryJob{Pkg: name, Path: f.Path, Data: f.Data})
			}
		}
	}
	lean := retainedResultsHeap(t, jobs, func(jobs []BinaryJob, opts footprint.Options) []JobResult {
		return AnalyzeJobsLocal(jobs, opts, nil)
	})
	fat := retainedResultsHeap(t, jobs, retainAllAnalyzer)
	if lean == 0 || fat == 0 {
		t.Skipf("heap measurement degenerate (lean=%d fat=%d)", lean, fat)
	}
	if lean*2 > fat {
		t.Errorf("summary-only results retain %d bytes, keep-everything retains %d; want at least a 2x win",
			lean, fat)
	}
	t.Logf("retained heap: %d bytes lean vs %d bytes with exec analyses kept", lean, fat)
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
