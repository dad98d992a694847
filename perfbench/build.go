package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro"
	"repro/internal/anacache"
	"repro/internal/callgraph"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/x86"
)

const mib = 1 << 20

// buildSamples holds the build side's measurements, one per repetition.
type buildSamples struct {
	cold, warm, ready, alloc, heap []float64
}

// buildRep measures the build side once: a cold study of the saved corpus
// with no analysis cache (what a first apistudy run pays), a warm study
// over the populated cache opened afresh (a reload), and a replica
// becoming ready from the snapshot file (restore plus service.New
// publishing the hotset).
func (b *bench) buildRep(e *env, rep int, s *buildSamples) error {
	tr := b.repTracer(rep)
	id := uint64(rep)
	var ms runtime.MemStats

	runtime.GC()
	b.calibrate()
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	start := time.Now()
	h := tr.begin(id, "study.cold", -1)
	cs, err := loadStudy(tr, id, h, e.corpusDir, nil)
	tr.end(h)
	s.cold = append(s.cold, time.Since(start).Seconds())
	if err != nil {
		return fmt.Errorf("cold study: %w", err)
	}
	runtime.ReadMemStats(&ms)
	s.alloc = append(s.alloc, float64(ms.TotalAlloc-allocBefore)/mib)

	cache, err := repro.OpenAnalysisCache(e.cacheDir)
	if err != nil {
		return err
	}
	runtime.GC()
	b.calibrate()
	start = time.Now()
	h = tr.begin(id, "study.warm", -1)
	ws, err := loadStudy(tr, id, h, e.corpusDir, cache)
	tr.end(h)
	s.warm = append(s.warm, time.Since(start).Seconds())
	if err != nil {
		return fmt.Errorf("warm study: %w", err)
	}
	st := cache.Stats()
	b.check(st.Misses == 0, "warm study missed the analysis cache %d times", st.Misses)

	runtime.GC()
	b.calibrate()
	start = time.Now()
	h = tr.begin(id, "replica.ready", -1)
	sp := tr.begin(id, "snapshot.load", h)
	ss, err := repro.LoadSnapshotStudy(e.snapFile)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("loading snapshot: %w", err)
	}
	sp = tr.begin(id, "service.new", h)
	replica := service.New(ss, "snapshot:"+e.snapFile, service.DefaultConfig())
	tr.end(sp)
	tr.end(h)
	s.ready = append(s.ready, time.Since(start).Seconds())

	b.checkStudies(rep, cs, ws, ss)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	s.heap = append(s.heap, float64(ms.HeapAlloc)/mib)
	runtime.KeepAlive(cs)
	runtime.KeepAlive(replica)
	ss.Close()
	return nil
}

func (b *bench) recordBuild(s *buildSamples) {
	b.record("study_cold_s", s.cold)
	b.record("study_warm_s", s.warm)
	b.record("replica_ready_s", s.ready)
	b.record("study_alloc_mib", s.alloc)
	b.record("study_heap_mib", s.heap)
	b.note("build: %d repetitions", len(s.cold))
}

// loadStudy analyzes the saved corpus through the facade as apistudy
// does: repro.LoadStudyCached, which with a nil cache is repro.LoadStudy.
// Traced, it takes the same path through LoadStudyDistributed with
// core.AnalyzeJobsLocal as the JobAnalyzer, so the per-binary analysis
// gets a span of its own.
func loadStudy(tr *tracer, id uint64, parent int, dir string, cache *repro.AnalysisCache) (*repro.Study, error) {
	if tr == nil {
		return repro.LoadStudyCached(dir, cache)
	}
	return repro.LoadStudyDistributed(dir, cache, func(jobs []core.BinaryJob, opts footprint.Options) []core.JobResult {
		h := tr.begin(id, "core.analyze", parent)
		defer tr.end(h)
		return core.AnalyzeJobsLocal(jobs, opts, cache)
	})
}

// checkStudies verifies that the cold, warm and snapshot-restored studies
// agree: equal fingerprints and greedy paths always, and on the first
// repetition byte-equal full reports for cold and warm.
func (b *bench) checkStudies(rep int, cold, warm, restored *repro.Study) {
	fp := cold.Fingerprint()
	b.check(warm.Fingerprint() == fp && restored.Fingerprint() == fp,
		"fingerprints differ: cold %s, warm %s, snapshot %s", fp, warm.Fingerprint(), restored.Fingerprint())
	b.check(samePath(cold, warm) && samePath(cold, restored), "greedy paths differ between cold, warm and snapshot studies")
	if rep == 0 {
		b.check(sha256.Sum256([]byte(cold.ReportAll())) == sha256.Sum256([]byte(warm.ReportAll())),
			"cold and warm study reports differ")
	}
}

func samePath(a, b *repro.Study) bool {
	pa, pb := a.GreedyPath(), b.GreedyPath()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

// buildLayers times each build-side layer through its own public
// functions: the corpus load, the pipeline with core.AnalyzeJobsLocal as
// its JobAnalyzer (the rest of RunWith's time is aggregation), the report
// and metrics computations, then every binary one at a time through
// elfx, x86, callgraph, footprint and anacache, and finally the snapshot
// encode, open and restore and service.New.
func (b *bench) buildLayers(e *env) error {
	tr := b.tr
	root := tr.begin(0, "layers.build", -1)
	defer tr.end(root)
	timed := func(metric, span string, f func()) {
		h := tr.begin(0, span, root)
		f()
		b.layer[metric] = millis(tr.end(h))
	}

	var c *corpus.Corpus
	var err error
	timed("corpus.load_ms", "corpus.load", func() { c, err = corpus.Load(e.corpusDir) })
	if err != nil {
		return err
	}
	var jobs []core.BinaryJob
	var analyze time.Duration
	run := tr.begin(0, "core.run", root)
	s, err := core.RunWith(c, footprint.Options{}, nil, func(js []core.BinaryJob, opts footprint.Options) []core.JobResult {
		jobs = js
		h := tr.begin(0, "core.analyze", run)
		defer func() { analyze = tr.end(h) }()
		return core.AnalyzeJobsLocal(js, opts, nil)
	})
	total := tr.end(run)
	if err != nil {
		return err
	}
	b.layer["core.analyze_ms"] = millis(analyze)
	b.layer["core.aggregate_ms"] = millis(total - analyze)
	timed("report.build_ms", "report.build", func() { report.New(s) })
	timed("metrics.record_ms", "metrics.record", func() { metrics.Record(store.NewDB(), s.Input) })
	timed("metrics.importance_ms", "metrics.importance", func() { metrics.Importance(s.Input) })
	timed("metrics.greedy_path_ms", "metrics.greedy_path", func() { metrics.GreedyPath(s.Input, linuxapi.KindSyscall) })

	if err := b.binaryLayers(jobs, e.cacheDir, root); err != nil {
		return err
	}

	var data []byte
	timed("snapshot.encode_ms", "snapshot.encode", func() { data, err = e.study.EncodeSnapshot(1) })
	if err != nil {
		return err
	}
	b.layer["snapshot.bytes"] = float64(len(data))
	var d *snapshot.Data
	timed("snapshot.open_ms", "snapshot.open", func() { d, err = snapshot.Open(e.snapFile) })
	if err != nil {
		return err
	}
	defer d.Close()
	var restored *repro.Study
	timed("snapshot.restore_ms", "snapshot.restore", func() { restored, err = repro.StudyFromSnapshot(d) })
	if err != nil {
		return err
	}
	var svc *service.Service
	timed("service.new_ms", "service.new", func() { svc = service.New(restored, "snapshot", service.DefaultConfig()) })
	b.layer["service.hotset_entries"] = float64(svc.Stats().HotsetEntries)
	return nil
}

// binaryLayers runs every analyzed binary through the per-binary layers
// one at a time, so each layer's total is its busy time on one core. The
// spans of one binary share its id. footprint.Analyze builds its own call
// graph, so extraction is Analyze's time minus callgraph.Build's.
func (b *bench) binaryLayers(jobs []core.BinaryJob, cacheDir string, root int) error {
	tr := b.tr
	warm, err := anacache.Open(cacheDir, footprint.Options{})
	if err != nil {
		return err
	}
	putCache, err := anacache.Open(filepath.Join(b.dir, "put-anacache"), footprint.Options{})
	if err != nil {
		return err
	}
	var open, decode, graph, extract, summarize, get, put time.Duration
	var binaries, insts, funcs, edges, sites, unresolved int
	for i, j := range jobs {
		id := uint64(i + 1)
		bh := tr.begin(id, "binary", root)
		h := tr.begin(id, "anacache.get", bh)
		_, hit := warm.Get(j.Data)
		get += tr.end(h)
		b.check(hit, "%s/%s missed the populated analysis cache", j.Pkg, j.Path)

		h = tr.begin(id, "elfx.open", bh)
		bin, err := elfx.Open(j.Path, j.Data)
		open += tr.end(h)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", j.Pkg, j.Path, err)
		}
		binaries++

		h = tr.begin(id, "x86.decode", bh)
		insts += len(x86.DecodeAll(bin.Text.Data, bin.Text.Addr))
		decode += tr.end(h)

		// Whichever of the two runs second finds the binary's bytes in the
		// processor caches, so the order alternates between binaries and the
		// bias cancels in the totals.
		var g *callgraph.Graph
		var a *footprint.Analysis
		var cg, an time.Duration
		buildGraph := func() {
			h := tr.begin(id, "callgraph.build", bh)
			g = callgraph.Build(bin)
			cg = tr.end(h)
		}
		analyze := func() {
			h := tr.begin(id, "footprint.analyze", bh)
			a = footprint.Analyze(bin, footprint.Options{})
			an = tr.end(h)
		}
		if i%2 == 0 {
			buildGraph()
			analyze()
		} else {
			analyze()
			buildGraph()
		}
		graph += cg
		extract += an - cg
		funcs += len(g.Funcs)
		for _, n := range g.Funcs {
			edges += len(n.Calls) + len(n.Imports) + len(n.Taken)
		}
		sites += a.Sites
		unresolved += a.Unresolved

		h = tr.begin(id, "footprint.summarize", bh)
		sum := footprint.Summarize(a)
		summarize += tr.end(h)

		h = tr.begin(id, "anacache.put", bh)
		err = putCache.Put(j.Data, sum)
		put += tr.end(h)
		if err != nil {
			return err
		}
		tr.end(bh)
	}
	b.layer["elfx.open_ms"] = millis(open)
	b.layer["elfx.binaries"] = float64(binaries)
	b.layer["x86.decode_ms"] = millis(decode)
	b.layer["x86.insts"] = float64(insts)
	b.layer["callgraph.build_ms"] = millis(graph)
	b.layer["callgraph.funcs"] = float64(funcs)
	b.layer["callgraph.edges"] = float64(edges)
	b.layer["footprint.extract_ms"] = millis(extract)
	b.layer["footprint.summarize_ms"] = millis(summarize)
	b.layer["footprint.sites"] = float64(sites)
	b.layer["footprint.unresolved_sites"] = float64(unresolved)
	b.layer["anacache.get_ms"] = millis(get)
	b.layer["anacache.put_ms"] = millis(put)
	b.layer["anacache.hit_ratio"] = warm.Stats().HitRatio()
	return nil
}
