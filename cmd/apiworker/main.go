// Command apiworker serves the per-binary analysis phase of the study to
// a fleet coordinator: it wraps the ordinary pipeline (disassembly, call
// graph, footprint summary) plus the persistent analysis cache behind
// POST /v1/shard/analyze, with /healthz for health tracking and /metrics
// for scraping. Start two of them and point apistudy -workers at both
// for a one-machine distributed run.
//
// The same pipeline is also exposed as a durable job type: POST
// /v1/jobs/shard-analyze queues a shard instead of holding the
// connection, and with -spool-dir queued work survives a restart.
// Coordinator RPCs and queued jobs draw from one -pool analysis budget.
// The /v1/jobs routes are apiserved's own (httpapi.NewJobs): the same
// status codes, {error, retry_after_s, request_id} envelope on every
// non-2xx, X-Request-ID checks and echo, and a long-poll cap of 29s.
// /metrics carries the job tier's apiserved_jobs_* families beside the
// worker's apiworker_* ones.
//
// Usage:
//
//	apiworker -addr :8841
//	apiworker -addr :8842 -cache-dir /var/cache/apiworker2
//	apiworker -addr :8843 -spool-dir /var/spool/apiworker -pool 4
//	apiworker -check http://127.0.0.1:8841   # health probe, exit 0/1
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("apiworker: ")
	var (
		addr     = flag.String("addr", ":8841", "listen address")
		cacheDir = flag.String("cache-dir", "", "persistent analysis cache directory (re-dispatched shards reuse per-binary records)")
		bodyMax  = flag.Int64("max-body", 1<<30, "max shard request body bytes")
		poolSize = flag.Int("pool", 2, "concurrent analysis slots shared by shard RPCs and queued jobs (0 = unlimited)")
		spoolDir = flag.String("spool-dir", "", "job spool directory; queued shard-analyze jobs survive a restart")
		maxQueue = flag.Int("max-queue", 256, "max queued jobs before submissions are shed")
		grace    = flag.Duration("grace", 5*time.Second, "shutdown drain period")
		check    = flag.String("check", "", "probe the given worker URL's /healthz and exit 0 (healthy) or 1; for scripts without curl")
		quiet    = flag.Bool("quiet", false, "disable per-shard logging")
	)
	flag.Parse()

	if *check != "" {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, *check+"/healthz", nil)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			os.Exit(1)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			os.Exit(1)
		}
		return
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
	var shardLog *log.Logger
	if !*quiet {
		shardLog = log.New(os.Stderr, "apiworker: ", log.LstdFlags)
	}
	var pool *jobs.Pool // nil = unlimited
	if *poolSize > 0 {
		pool = jobs.NewPool(*poolSize)
	}
	worker := fleet.NewWorker(fleet.WorkerConfig{
		Opts:         repro.Options{},
		Cache:        anaCache,
		MaxBodyBytes: *bodyMax,
		Pool:         pool,
		Logger:       shardLog,
	})

	// The job tier rides on the same pool, so a queued shard never runs
	// while the coordinator path has every slot (and vice versa).
	mgr := jobs.New(jobs.Config{
		SpoolDir: *spoolDir,
		Pool:     pool,
		MaxQueue: *maxQueue,
		Logf:     log.Printf,
	})
	if err := mgr.Register(worker.ShardExecutor()); err != nil {
		log.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		log.Fatal(err)
	}
	if *spoolDir != "" {
		log.Printf("job spool at %s", *spoolDir)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("serving shard analysis on %s (jobs: %s)", *addr,
		strings.Join(mgr.Types(), ","))
	if err := httpapi.ListenAndServe(ctx, *addr, newHandler(worker, mgr, shardLog), *grace, log.Default()); err != nil &&
		!errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	mgr.Close()
	log.Printf("bye")
}

// newHandler serves the job tier through httpapi's job routes under
// /v1/jobs, one /metrics page carrying the worker's families and the
// job tier's, and everything else (the shard endpoint, /healthz) from
// the worker. logger (nil under -quiet) logs each job request.
func newHandler(worker *fleet.Worker, mgr *jobs.Manager, logger *log.Logger) http.Handler {
	jobsHandler := httpapi.NewJobs(mgr, httpapi.Options{Logger: logger})
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", obs.Handler(func(w *obs.Writer) {
		worker.WriteMetrics(w)
		mgr.WriteMetrics(w)
	}))
	mux.Handle("/", worker)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Job paths reach the job routes uncleaned: a ServeMux in front
		// would answer an unclean one (/v1/jobs//x) with its own plain
		// 301, where the job routes send apiserved's enveloped one.
		if p := r.URL.Path; p == "/v1/jobs" || strings.HasPrefix(p, "/v1/jobs/") {
			jobsHandler.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
}
