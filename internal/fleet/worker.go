package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/anacache"
	"repro/internal/core"
	"repro/internal/footprint"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// WorkerConfig tunes one shard worker.
type WorkerConfig struct {
	// Opts are the analysis options the worker's cache (if any) is keyed
	// under; requests carrying different options are analyzed correctly
	// but bypass the cache, since its records would not apply.
	Opts footprint.Options
	// Cache, when non-nil, is the worker's persistent analysis cache:
	// re-dispatched and re-run shards reuse per-binary records exactly
	// like a local incremental run.
	Cache *anacache.Cache
	// MaxBodyBytes caps request bodies (default 1 GiB — a shard carries
	// raw ELF images).
	MaxBodyBytes int64
	// Pool, when non-nil, bounds concurrent shard analyses. The same
	// pool can back a jobs.Manager on the same process, so coordinator
	// RPCs and queued jobs draw from one analysis budget instead of
	// doubling the worker's footprint.
	Pool *jobs.Pool
	// Logger receives one line per shard; nil disables logging.
	Logger *log.Logger
}

// analyzeShard runs one shard request through the ordinary in-process
// analysis pipeline. It is the common core of the worker's HTTP
// endpoint and the shard-analyze job executor.
func analyzeShard(req *ShardRequest, opts footprint.Options, cache *anacache.Cache) (ShardResponse, uint64) {
	work := make([]core.BinaryJob, len(req.Files))
	for i, f := range req.Files {
		work[i] = core.BinaryJob{Pkg: f.Pkg, Path: f.Path, Data: f.Data, Lib: f.Lib}
	}
	// The cache is keyed by the options it was opened under; a request
	// analyzed under different options must not read or write it.
	if req.Opts != opts {
		cache = nil
	}
	results := core.AnalyzeJobsLocal(work, req.Opts, cache)

	resp := ShardResponse{Shard: req.Shard, Results: make([]FileResult, len(results))}
	var fileErrs uint64
	for i := range results {
		if err := results[i].Err; err != nil {
			resp.Results[i].Err = err.Error()
			fileErrs++
			continue
		}
		resp.Results[i].Summary = results[i].Summary
	}
	return resp, fileErrs
}

// Worker is the HTTP shard-analysis endpoint: it wraps the ordinary
// in-process analysis pipeline (core.AnalyzeJobsLocal, all cores) plus
// the analysis cache behind AnalyzePath, with /healthz for the
// coordinator's health tracking and /metrics for scraping.
type Worker struct {
	cfg   WorkerConfig
	mux   *http.ServeMux
	start time.Time

	shards     atomic.Uint64
	files      atomic.Uint64
	fileErrors atomic.Uint64
	badShards  atomic.Uint64
}

// NewWorker wires the worker endpoints onto a fresh mux.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 30
	}
	w := &Worker{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	w.mux.HandleFunc("POST "+AnalyzePath, w.handleAnalyze)
	w.mux.HandleFunc("GET /healthz", w.handleHealthz)
	w.mux.HandleFunc("GET /metrics", obs.Handler(w.WriteMetrics))
	return w
}

func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logger != nil {
		w.cfg.Logger.Printf(format, args...)
	}
}

func (w *Worker) handleAnalyze(rw http.ResponseWriter, r *http.Request) {
	start := time.Now()
	raw, err := io.ReadAll(http.MaxBytesReader(rw, r.Body, w.cfg.MaxBodyBytes))
	var req *ShardRequest
	if err == nil {
		req, err = decodeRequest(raw)
	}
	if err != nil {
		w.badShards.Add(1)
		var tooBig *http.MaxBytesError
		code := http.StatusBadRequest
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(rw, fmt.Sprintf("decoding shard request: %v", err), code)
		return
	}

	// Coordinator RPCs share the analysis budget with any co-resident
	// job tier; a request that cannot get a slot before the client gives
	// up is not analyzed at all.
	release, err := w.cfg.Pool.Acquire(r.Context())
	if err != nil {
		http.Error(rw, fmt.Sprintf("waiting for analysis slot: %v", err),
			http.StatusServiceUnavailable)
		return
	}
	resp, fileErrs := analyzeShard(req, w.cfg.Opts, w.cfg.Cache)
	release()

	w.shards.Add(1)
	w.files.Add(uint64(len(req.Files)))
	w.fileErrors.Add(fileErrs)

	rw.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(rw).Encode(&resp); err != nil {
		w.logf("shard %d: writing response: %v", req.Shard, err)
		return
	}
	w.logf("shard %d: %d files (%d skipped) in %s",
		req.Shard, len(req.Files), fileErrs, time.Since(start).Round(time.Millisecond))
}

// JobShardAnalyze is the job type served by a worker's shard executor.
const JobShardAnalyze = "shard-analyze"

// ShardExecutor exposes the worker's analysis pipeline as a durable job
// type: params are a ShardRequest, the result is the ShardResponse the
// HTTP endpoint would have returned. The executor shares the worker's
// metrics counters; concurrency is bounded by the manager it is
// registered on (give that manager the worker's Pool so both paths
// draw from one budget), so Execute itself takes no slot.
func (w *Worker) ShardExecutor() jobs.Executor { return shardExecutor{w} }

type shardExecutor struct {
	w *Worker
}

func (e shardExecutor) Type() string { return JobShardAnalyze }

func (e shardExecutor) Execute(ctx context.Context, params json.RawMessage) (any, error) {
	req, err := decodeRequest(params)
	if err != nil {
		e.w.badShards.Add(1)
		return nil, jobs.Permanent(err)
	}
	resp, fileErrs := analyzeShard(req, e.w.cfg.Opts, e.w.cfg.Cache)
	e.w.shards.Add(1)
	e.w.files.Add(uint64(len(req.Files)))
	e.w.fileErrors.Add(fileErrs)
	return resp, nil
}

func (w *Worker) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{
		"status":         "ok",
		"shards":         w.shards.Load(),
		"files":          w.files.Load(),
		"uptime_seconds": int64(time.Since(w.start).Seconds()),
	})
}

// WriteMetrics writes the apiworker_* families and the worker cache's
// apiworker_anacache_* families: the worker's own /metrics page, and
// its part of a page that also carries a job tier (cmd/apiworker).
func (w *Worker) WriteMetrics(mw *obs.Writer) {
	obs.Counter(mw, "apiworker_shards_total", "Shard-analysis requests served.", w.shards.Load())
	obs.Counter(mw, "apiworker_files_total", "Files analyzed across all shards.", w.files.Load())
	obs.Counter(mw, "apiworker_file_errors_total", "Files that failed analysis and were skipped.", w.fileErrors.Load())
	obs.Counter(mw, "apiworker_bad_requests_total", "Shard requests rejected as malformed.", w.badShards.Load())
	if w.cfg.Cache != nil {
		w.cfg.Cache.WriteMetrics(mw, "apiworker")
	}
}
