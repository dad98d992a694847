// Command apiserved serves the study as a long-running HTTP/JSON query
// service: the pipeline (corpus → disassembly → call graph → closure →
// metrics) runs once at startup, and every subsequent footprint,
// completeness or sandbox question is answered from the resident
// snapshot — the iterated "what API do I need next?" workload that
// drove the paper's own reusable framework (§7).
//
// Usage:
//
//	apiserved -addr :8080                          # generated corpus
//	apiserved -addr :8080 -packages 3000 -seed 1504
//	apiserved -addr :8080 -corpus /data/corpus -watch 10s
//
// Endpoints: /healthz, /metrics, /v1/importance/{syscall},
// /v1/completeness (POST), /v1/suggest (POST), /v1/path,
// /v1/footprint/{pkg}, /v1/seccomp/{pkg}, /v1/analyze (POST ELF),
// /v1/compat/systems, /v1/compat/plan?system=NAME (the stub-aware
// implement-vs-stub worklist; the first plan query of a generation
// builds the emulator-driven verdict matrix, cached across restarts
// via -cache-dir). Query endpoints sit behind admission control
// (-max-inflight/-max-queue/-queue-wait): excess load is shed with
// 429 + Retry-After instead of queueing unboundedly, while /healthz
// and /metrics keep answering. SIGINT/SIGTERM drain in-flight requests
// before exit; with -corpus and -watch, a changed corpus directory is
// re-analyzed in the background and swapped in without dropping
// requests.
//
// With -spool-dir the async job tier comes up alongside the query
// path: POST /v1/jobs/{type} (analyze-upload, corpus-diff,
// compat-matrix, snapshot-rebuild, timeline-build, plan-build),
// GET /v1/jobs/{id} (?wait=30s
// long-polls), GET /v1/jobs/{id}/result, GET /v1/jobs?state=dead.
// Spooled jobs survive a restart, duplicate submissions collapse onto
// one job, and /v1/analyze uploads at or above -async-analyze-bytes
// are answered 202 with a job record instead of blocking.
//
// Replicated serving: -snapshot-out writes the analyzed study as a
// columnar snapshot file; -snapshot serves such a file directly
// (validation failure falls back to rebuilding from -corpus);
// -await-snapshot -snapshot-dir DIR turns the process into a replica
// that starts empty (healthz 503), adopts the newest valid snapshot in
// DIR, and accepts publisher pushes on POST /v1/snapshot with
// POST /v1/snapshot/rollback and GET /v1/snapshot alongside.
//
//	apiserved -addr :8080 -snapshot study.snap
//	apiserved -addr :8081 -await-snapshot -snapshot-dir /data/snaps
//
// Corpus evolution: -series-dir loads (or builds, -series-gens) a
// release series — N generations of the corpus under deterministic
// drift — and serves the cross-generation trend endpoints
// /v1/trends/importance, /v1/trends/completeness and /v1/trends/path,
// plus a ?gen= selector on the ordinary query endpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* for -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	corpuspkg "repro/internal/corpus"
	"repro/internal/evolution"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("apiserved: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		corpus     = flag.String("corpus", "", "analyze an on-disk corpus directory instead of generating one")
		packages   = flag.Int("packages", 3000, "generated corpus size (ignored with -corpus)")
		seed       = flag.Int64("seed", 1504, "generated corpus seed (ignored with -corpus)")
		cacheBytes = flag.Int64("cache-bytes", 64<<20, "encoded-answer byte cache budget (resident bytes across shards)")
		analyses   = flag.Int("max-analyses", 4, "max concurrent /v1/analyze requests")
		bodyMax    = flag.Int64("max-upload", 32<<20, "max /v1/analyze body bytes")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		inflight   = flag.Int("max-inflight", 256, "max concurrently served /v1/* requests (0 disables admission control)")
		queue      = flag.Int("max-queue", 512, "max requests waiting for an in-flight slot before shedding")
		queueWait  = flag.Duration("queue-wait", time.Second, "max time a request may queue for a slot")
		grace      = flag.Duration("grace", 10*time.Second, "shutdown drain period")
		watch      = flag.Duration("watch", 0, "poll interval for -corpus changes (0 disables reload)")
		cacheDir   = flag.String("cache-dir", "", "persistent analysis cache directory (warm starts and incremental reloads)")
		workers    = flag.String("workers", "", "comma-separated apiworker URLs; analysis (startup and reloads) is distributed across them")
		shards     = flag.Int("shards", 0, "shard count for -workers (0: 4 per worker)")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty disables)")
		quiet      = flag.Bool("quiet", false, "disable request logging")

		snapFile     = flag.String("snapshot", "", "serve this snapshot file instead of analyzing a corpus (-corpus becomes the rebuild fallback if the file fails validation)")
		snapOut      = flag.String("snapshot-out", "", "write the analyzed study as a snapshot file to this path once it is ready")
		snapDir      = flag.String("snapshot-dir", "", "mount the snapshot admin surface (POST /v1/snapshot, rollback) spooling pushed generations into this directory")
		awaitSnap    = flag.Bool("await-snapshot", false, "start empty and wait for a pushed snapshot; /healthz reports 503 until one lands")
		maxSnapBytes = flag.Int64("max-snapshot-bytes", 256<<20, "max /v1/snapshot push body bytes")

		seriesDir  = flag.String("series-dir", "", "release series directory: load gen-*.snap + trends.json, or build a fresh series there (enables /v1/trends/* and ?gen= selectors)")
		seriesGens = flag.Int("series-gens", 3, "generations to build when -series-dir holds no series yet")

		spoolDir   = flag.String("spool-dir", "", "enable the async job tier with this spool directory; queued jobs survive a restart")
		jobWorkers = flag.Int("job-workers", 2, "concurrent job executions")
		jobQueue   = flag.Int("job-queue", 256, "max queued jobs before submissions are shed")
		jobTTL     = flag.Duration("job-ttl", time.Hour, "retention of finished jobs and their results")
		asyncBytes = flag.Int64("async-analyze-bytes", 8<<20, "route /v1/analyze uploads at or above this size into the job tier (0: default, negative: never)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// The profiler gets its own listener so it is never exposed on
		// the service address; pprof.init registers its handlers on
		// http.DefaultServeMux.
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	var anaCache *repro.AnalysisCache
	if *cacheDir != "" {
		var err error
		anaCache, err = repro.OpenAnalysisCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("analysis cache at %s", *cacheDir)
	}

	var coord *fleet.Coordinator
	if *workers != "" {
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		coord = fleet.New(fleet.Config{
			Workers: urls,
			Shards:  *shards,
			Cache:   anaCache,
			Logf:    log.Printf,
		})
		log.Printf("fleet: distributing analysis across %d workers", len(urls))
	}

	var (
		study  *repro.Study
		source string
		err    error
	)
	start := time.Now()
	switch {
	case *awaitSnap || *snapFile != "":
		// Replica mode: nothing is analyzed here. The study arrives as a
		// snapshot file — from -snapshot now, from disk adoption
		// (-snapshot-dir), or from a publisher push.
		study = repro.EmptyStudy()
		source = "awaiting-snapshot"
	case *corpus != "":
		source = *corpus
		log.Printf("analyzing corpus %s ...", *corpus)
		study, err = repro.LoadStudyDistributed(*corpus, anaCache, analyzeFunc(coord))
	default:
		cfg := repro.DefaultConfig()
		cfg.Packages = *packages
		cfg.Seed = *seed
		source = "generated"
		log.Printf("generating and analyzing corpus (%d packages, seed %d) ...", cfg.Packages, cfg.Seed)
		study, err = repro.NewStudyDistributed(cfg, anaCache, analyzeFunc(coord))
	}
	if err != nil {
		log.Fatal(err)
	}
	meta := study.Meta()
	if source != "awaiting-snapshot" {
		log.Printf("study ready in %s: %d packages, %d executables, fingerprint %s",
			time.Since(start).Round(time.Millisecond), meta.Packages, meta.Executables, meta.Fingerprint)
		if *snapOut != "" {
			if err := study.WriteSnapshot(*snapOut, 1); err != nil {
				log.Fatal(err)
			}
			log.Printf("snapshot written to %s (generation 1)", *snapOut)
		}
	}
	if anaCache != nil {
		cs := study.CacheStats()
		log.Printf("analysis cache: %d hits, %d misses, %d invalidations, %d writes (hit ratio %.2f)",
			cs.Hits, cs.Misses, cs.Invalidations, cs.Writes, cs.HitRatio())
	}

	svc := service.New(study, source, service.Config{
		CacheBytes:  *cacheBytes,
		MaxAnalyses: *analyses,
		Cache:       anaCache,
		Fleet:       coord,
	})

	if *snapFile != "" {
		// Serve the snapshot file; a corpus directory, when given,
		// becomes the rebuild fallback for a corrupt or missing file.
		gen, err := svc.ReloadSnapshot(*snapFile, *corpus)
		if err != nil {
			log.Fatal(err)
		}
		snap := svc.Snapshot()
		log.Printf("snapshot %s serving in %s: generation %d, %d packages, fingerprint %s (source %s)",
			*snapFile, time.Since(start).Round(time.Millisecond), gen,
			snap.Meta.Packages, snap.Meta.Fingerprint, snap.Source)
	}

	var snapMgr *service.SnapshotManager
	if *snapDir != "" {
		snapMgr, err = service.NewSnapshotManager(svc, *snapDir)
		if err != nil {
			log.Fatal(err)
		}
		// Only adopt from disk when nothing else produced a study; a
		// stale spool must not shadow a freshly analyzed corpus.
		if svc.Snapshot().Meta.Packages == 0 {
			if gen, err := snapMgr.OpenLatest(); err == nil {
				log.Printf("adopted snapshot generation %d from %s", gen, *snapDir)
			} else if !errors.Is(err, service.ErrNoPrevious) {
				log.Printf("snapshot adoption from %s failed: %v", *snapDir, err)
			}
		}
		log.Printf("snapshot admin surface up, spooling to %s", *snapDir)
	}

	if *seriesDir != "" {
		seriesStart := time.Now()
		series, err := evolution.Load(*seriesDir)
		if err != nil {
			log.Printf("no loadable series in %s (%v); building %d generations", *seriesDir, err, *seriesGens)
			scfg := corpuspkg.DefaultSeriesConfig()
			scfg.Base = corpuspkg.Config{Packages: *packages, Seed: *seed}
			scfg.Generations = *seriesGens
			series, err = evolution.Build(evolution.Config{
				Series:  scfg,
				Dir:     *seriesDir,
				Cache:   anaCache,
				Analyze: analyzeFunc(coord),
			})
			if err != nil {
				log.Fatal(err)
			}
		}
		gens := svc.InstallSeries(series, time.Since(seriesStart))
		log.Printf("release series resident in %s: %d generations from %s (trend endpoints up)",
			time.Since(seriesStart).Round(time.Millisecond), gens, *seriesDir)
	}

	var mgr *jobs.Manager
	if *spoolDir != "" {
		mgr = jobs.New(jobs.Config{
			SpoolDir:  *spoolDir,
			Workers:   *jobWorkers,
			MaxQueue:  *jobQueue,
			ResultTTL: *jobTTL,
			Logf:      log.Printf,
		})
		if err := service.RegisterExecutors(mgr, svc); err != nil {
			log.Fatal(err)
		}
		if err := mgr.Start(); err != nil {
			log.Fatal(err)
		}
		log.Printf("job tier up: spool %s, %d workers, types %s",
			*spoolDir, *jobWorkers, strings.Join(mgr.Types(), ","))
	}

	var reqLog *log.Logger
	if !*quiet {
		reqLog = log.New(os.Stderr, "apiserved: ", log.LstdFlags)
	}
	api := httpapi.New(svc, httpapi.Options{
		Logger:            reqLog,
		RequestTimeout:    *timeout,
		MaxUploadBytes:    *bodyMax,
		MaxInFlight:       *inflight,
		MaxQueue:          *queue,
		QueueWait:         *queueWait,
		Jobs:              mgr,
		AsyncAnalyzeBytes: *asyncBytes,
		Snapshots:         snapMgr,
		MaxSnapshotBytes:  *maxSnapBytes,
	})
	if *inflight > 0 {
		log.Printf("admission control: %d in flight, %d queued, %s max wait",
			*inflight, *queue, *queueWait)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *corpus != "" && *watch > 0 && *snapFile == "" && !*awaitSnap {
		log.Printf("watching %s every %s for corpus changes", *corpus, *watch)
		go svc.WatchCorpus(ctx, *corpus, *watch, log.Printf)
	}

	log.Printf("serving on %s (generation %d)", *addr, svc.Generation())
	if err := httpapi.ListenAndServe(ctx, *addr, api, *grace, log.Default()); err != nil &&
		!errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	if mgr != nil {
		// Running jobs are reverted to queued in the spool so the next
		// start resumes them under the same IDs.
		mgr.Close()
	}
	log.Printf("bye")
}

// analyzeFunc adapts an optional coordinator to the facade's JobAnalyzer
// parameter (nil coordinator means analyze in-process).
func analyzeFunc(coord *fleet.Coordinator) repro.JobAnalyzer {
	if coord == nil {
		return nil
	}
	return coord.AnalyzeJobs
}
