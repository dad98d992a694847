// Package httpapi exposes the query service over stdlib-only HTTP/JSON.
// One resident study answers the paper's practical questions on demand:
// importance of a call, weighted completeness of a syscall set, what to
// implement next, a package's footprint and sandbox policy, and ad-hoc
// footprint extraction of uploaded ELF binaries. Every handler runs
// behind admission control (a concurrency limiter with a bounded
// deadline-aware wait queue; overload degrades to fast 429 +
// Retry-After rejections instead of unbounded queueing — /healthz and
// /metrics bypass it so the server stays observable), request logging,
// a per-request timeout, and metrics capture; /metrics exports
// Prometheus-style text with request counts, per-route latency
// histograms, admission/shed gauges, the cache hit ratio and the
// snapshot generation.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// Options tunes the HTTP layer.
type Options struct {
	// Logger receives one line per request; nil disables request logging.
	Logger *log.Logger
	// RequestTimeout bounds each handler, including queue time in the
	// analysis pool (default 30s).
	RequestTimeout time.Duration
	// MaxUploadBytes caps /v1/analyze request bodies (default 32 MiB).
	MaxUploadBytes int64
	// MaxInFlight bounds concurrently served /v1/* requests; excess
	// requests wait in a bounded queue and are shed with 429 +
	// Retry-After when it overflows or the wait exceeds QueueWait.
	// /healthz and /metrics bypass admission so the server stays
	// observable under overload. <= 0 disables admission control.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot (only
	// meaningful with MaxInFlight > 0; 0 sheds as soon as slots fill).
	MaxQueue int
	// QueueWait bounds the time one request may wait for a slot
	// (default 1s; also bounded by the request's own deadline).
	QueueWait time.Duration
	// Jobs, when non-nil, mounts the async job tier: POST
	// /v1/jobs/{type}, job status/result/list routes, and async
	// routing of oversized /v1/analyze uploads. Job routes bypass
	// admission control — the tier has its own bounded queue, and a
	// long-poll must not pin an admission slot.
	Jobs *jobs.Manager
	// AsyncAnalyzeBytes routes /v1/analyze uploads of at least this
	// many bytes into the job tier as analyze-upload jobs (202 + job
	// record) instead of analyzing synchronously. 0 defaults to 8 MiB
	// when Jobs is set; negative keeps every upload synchronous.
	AsyncAnalyzeBytes int64
	// Snapshots, when non-nil, mounts the replica admin surface: POST
	// /v1/snapshot (publisher push), POST /v1/snapshot/rollback and GET
	// /v1/snapshot. Admin routes bypass admission control — a publisher
	// push must land even while query traffic is being shed.
	Snapshots *service.SnapshotManager
	// MaxSnapshotBytes caps /v1/snapshot request bodies (default 256 MiB).
	MaxSnapshotBytes int64
}

// API is the http.Handler serving the query service.
type API struct {
	svc       *service.Service
	opts      Options
	mux       *http.ServeMux
	start     time.Time
	metrics   *requestMetrics
	admission *service.Admission
}

// New wires every endpoint onto a fresh mux.
func New(svc *service.Service, opts Options) *API {
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 30 * time.Second
	}
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 32 << 20
	}
	if opts.Jobs != nil && opts.AsyncAnalyzeBytes == 0 {
		opts.AsyncAnalyzeBytes = 8 << 20
	}
	if opts.MaxSnapshotBytes <= 0 {
		opts.MaxSnapshotBytes = 256 << 20
	}
	a := &API{
		svc:     svc,
		opts:    opts,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		metrics: newRequestMetrics(),
		admission: service.NewAdmission(service.AdmissionConfig{
			MaxInFlight: opts.MaxInFlight,
			MaxQueue:    opts.MaxQueue,
			QueueWait:   opts.QueueWait,
		}),
	}
	a.handle("GET /healthz", a.handleHealthz, bypassAdmission)
	a.handle("GET /metrics", a.handleMetrics, bypassAdmission)
	a.handle("GET /v1/importance/{syscall}", a.handleImportance)
	a.handle("POST /v1/completeness", a.handleCompleteness)
	a.handle("POST /v1/suggest", a.handleSuggest)
	a.handle("GET /v1/path", a.handlePath)
	a.handle("GET /v1/footprint/{pkg}", a.handleFootprint)
	a.handle("GET /v1/seccomp/{pkg}", a.handleSeccomp)
	a.handle("GET /v1/compat/systems", a.handleCompatSystems)
	a.handle("GET /v1/compat/plan", a.handlePlan)
	a.handle("GET /v1/trends/importance", a.handleTrendImportance)
	a.handle("GET /v1/trends/completeness", a.handleTrendCompleteness)
	a.handle("GET /v1/trends/path", a.handleTrendPath)
	a.handle("POST /v1/analyze", a.handleAnalyze)
	if opts.Jobs != nil {
		a.handle("POST /v1/jobs/{type}", a.handleJobSubmit, bypassAdmission)
		a.handle("GET /v1/jobs", a.handleJobList, bypassAdmission)
		a.handle("GET /v1/jobs/{id}", a.handleJobStatus, bypassAdmission)
		a.handle("GET /v1/jobs/{id}/result", a.handleJobResult, bypassAdmission)
	}
	if opts.Snapshots != nil {
		a.handle("POST /v1/snapshot", a.handleSnapshotPush, bypassAdmission)
		a.handle("POST /v1/snapshot/rollback", a.handleSnapshotRollback, bypassAdmission)
		a.handle("GET /v1/snapshot", a.handleSnapshotStatus, bypassAdmission)
	}
	return a
}

// ServeHTTP resolves the request ID first, so even responses produced
// outside a registered route (404s, 405s) echo one and wear the JSON
// error envelope.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, rid := withRequestID(w, r)
	if _, pattern := a.mux.Handler(r); pattern == "" {
		// No route: replay the mux into a recorder to keep its exact
		// verdict (404, or 405 with Allow) but re-dress the body.
		rec := &recordedResponse{header: make(http.Header)}
		a.mux.ServeHTTP(rec, r)
		if allow := rec.header.Get("Allow"); allow != "" {
			w.Header().Set("Allow", allow)
		}
		writeError(w, r, rec.code, "no route for %s %s", r.Method, r.URL.Path)
		if a.opts.Logger != nil {
			a.opts.Logger.Printf("%s %s -> %d rid=%s", r.Method, r.URL.Path, rec.code, rid)
		}
		return
	}
	a.mux.ServeHTTP(w, r)
}

// recordedResponse captures a handler's status and headers while
// discarding its body — used to borrow the mux's 404/405 decision.
type recordedResponse struct {
	header http.Header
	code   int
}

func (r *recordedResponse) Header() http.Header { return r.header }
func (r *recordedResponse) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *recordedResponse) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return len(p), nil
}

// bypassAdmission marks routes that must answer even under overload:
// health probes and metrics scrapes are how operators see the shed.
const bypassAdmission = "bypass-admission"

// handle wraps a route with admission control, timeout, metrics and
// logging middleware.
func (a *API) handle(pattern string, h http.HandlerFunc, flags ...string) {
	bypass := false
	for _, f := range flags {
		if f == bypassAdmission {
			bypass = true
		}
	}
	a.metrics.register(pattern)
	a.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), a.opts.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		r = r.WithContext(ctx)
		if bypass {
			h(sw, r)
		} else if release, err := a.admission.Acquire(ctx); err != nil {
			retry := a.admission.RetryAfter()
			sw.Header().Set("Retry-After",
				strconv.Itoa(int(retry/time.Second)))
			writeError(sw, r, http.StatusTooManyRequests, "%v", err)
		} else {
			func() {
				defer release()
				h(sw, r)
			}()
		}
		elapsed := time.Since(start)
		a.metrics.observe(pattern, sw.code, elapsed)
		if a.opts.Logger != nil {
			a.opts.Logger.Printf("%s %s -> %d in %s rid=%s", r.Method, r.URL.Path, sw.code,
				elapsed.Round(time.Microsecond), RequestIDFrom(ctx))
		}
	})
}

// statusWriter records the response code for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is THE error envelope: every non-2xx response from this
// API — handler failures, admission sheds, even unrouted 404s — wears
// this one JSON shape, so clients write a single error decoder.
// RetryAfterS mirrors the Retry-After header for clients that only
// read bodies; RequestID ties the failure to the access log line and,
// for job submissions, the spool record.
type errorBody struct {
	Error       string `json:"error"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
	RequestID   string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	body := errorBody{Error: fmt.Sprintf(format, args...)}
	if r != nil {
		body.RequestID = RequestIDFrom(r.Context())
	}
	if s := w.Header().Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			body.RetryAfterS = secs
		}
	}
	writeJSON(w, code, body)
}

// writeServiceError maps service-layer errors onto HTTP status codes.
func writeServiceError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, service.ErrUnknownPackage):
		writeError(w, r, http.StatusNotFound, "%v", err)
	case errors.Is(err, service.ErrNoSeries):
		// Trend queries against a server with no release series resident:
		// the series is the missing resource, not the route.
		writeError(w, r, http.StatusNotFound, "%v", err)
	case errors.Is(err, service.ErrUnknownSystem):
		writeError(w, r, http.StatusNotFound, "%v", err)
	case errors.Is(err, service.ErrBadGeneration):
		writeError(w, r, http.StatusBadRequest, "%v", err)
	case errors.Is(err, service.ErrBusy):
		writeError(w, r, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, r, http.StatusBadRequest, "%v", err)
	}
}

func (a *API) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := a.svc.Snapshot()
	body := map[string]any{
		"status":         "ok",
		"generation":     snap.Generation,
		"source":         snap.Source,
		"loaded_at":      snap.LoadedAt.UTC().Format(time.RFC3339),
		"uptime_seconds": int64(time.Since(a.start).Seconds()),
		"fingerprint":    snap.Meta.Fingerprint,
		"packages":       snap.Meta.Packages,
		"executables":    snap.Meta.Executables,
	}
	// A replica holding only the empty placeholder study has nothing
	// real to serve: report 503 so a front proxy keeps it out of
	// rotation until a snapshot is pushed.
	if snap.Meta.Packages == 0 {
		body["status"] = "awaiting snapshot"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

type completenessRequest struct {
	Syscalls []string `json:"syscalls"`
}

type suggestRequest struct {
	Supported []string `json:"supported"`
	K         int      `json:"k"`
}

func (a *API) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, a.opts.MaxUploadBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, r, http.StatusRequestEntityTooLarge,
				"upload exceeds %d bytes", tooBig.Limit)
			return
		}
		writeError(w, r, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(data) == 0 {
		writeError(w, r, http.StatusBadRequest, "empty body; POST raw ELF bytes")
		return
	}
	name := r.URL.Query().Get("name")
	if a.opts.Jobs != nil && a.opts.AsyncAnalyzeBytes > 0 &&
		int64(len(data)) >= a.opts.AsyncAnalyzeBytes {
		// Oversized upload: minutes of disassembly do not belong on a
		// synchronous connection. 202 + job record; poll or long-poll
		// /v1/jobs/{id} for the same AnalyzeResult.
		a.analyzeAsync(w, r, name, data)
		return
	}
	res, err := a.svc.Analyze(r.Context(), name, data)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// decodeJSON reads one JSON object, rejecting trailing garbage.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return errors.New("trailing data after JSON object")
	}
	return nil
}

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// requestMetrics accumulates per-route counters and per-route latency
// histograms — per-route because a global histogram lets a slow
// endpoint's tail (/v1/analyze disassembles uploads) hide a regression
// in a fast one (/v1/importance is a map probe). The route set is fixed
// at construction (handle registers each pattern), so observe() is a
// read-only map probe plus atomic adds: the metrics layer adds no
// shared lock to the request path it is measuring.
type requestMetrics struct {
	routes map[string]*routeStats // immutable after registration
	names  []string               // registration order; sorted lazily
}

// routeStats is one route's counters: per-status-code request counts
// and a latency histogram over latencyBuckets, all atomics.
type routeStats struct {
	codes    [600]atomic.Uint64 // indexed by HTTP status code
	buckets  []atomic.Uint64    // len(latencyBuckets)+1; raw counts
	sumNanos atomic.Int64
	count    atomic.Uint64
}

func newRequestMetrics() *requestMetrics {
	return &requestMetrics{routes: make(map[string]*routeStats)}
}

// register adds a route. Called only while New wires the mux, before
// any traffic: the map is never written concurrently with observe.
func (m *requestMetrics) register(route string) {
	if _, ok := m.routes[route]; ok {
		return
	}
	m.routes[route] = &routeStats{buckets: make([]atomic.Uint64, len(latencyBuckets)+1)}
	m.names = append(m.names, route)
}

func (m *requestMetrics) observe(route string, code int, d time.Duration) {
	h := m.routes[route]
	if h == nil {
		return
	}
	if code < 0 || code >= len(h.codes) {
		code = len(h.codes) - 1
	}
	h.codes[code].Add(1)
	sec := d.Seconds()
	idx := len(latencyBuckets)
	for i, ub := range latencyBuckets {
		if sec <= ub {
			idx = i
			break
		}
	}
	h.buckets[idx].Add(1)
	h.sumNanos.Add(int64(d))
	h.count.Add(1)
}

func (a *API) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := a.svc.Stats()
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP apiserved_requests_total Requests served, by route and status code.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_requests_total counter\n")
	routeNames := append([]string(nil), a.metrics.names...)
	sort.Strings(routeNames)
	for _, route := range routeNames {
		h := a.metrics.routes[route]
		for code := range h.codes {
			if n := h.codes[code].Load(); n > 0 {
				fmt.Fprintf(&b, "apiserved_requests_total{route=%q,code=%q} %d\n",
					route, strconv.Itoa(code), n)
			}
		}
	}
	// The aggregate (unlabeled) histogram keeps the long-standing series
	// alive for dashboards; the per-route series are the ones that catch
	// a single endpoint's tail regressing.
	fmt.Fprintf(&b, "# HELP apiserved_request_duration_seconds Request latency histogram (aggregate over routes).\n")
	fmt.Fprintf(&b, "# TYPE apiserved_request_duration_seconds histogram\n")
	aggBuckets := make([]uint64, len(latencyBuckets)+1)
	var aggSum float64
	var aggCount uint64
	for _, route := range routeNames {
		h := a.metrics.routes[route]
		for i := range h.buckets {
			aggBuckets[i] += h.buckets[i].Load()
		}
		aggSum += float64(h.sumNanos.Load()) / 1e9
		aggCount += h.count.Load()
	}
	var cum uint64
	for i, ub := range latencyBuckets {
		cum += aggBuckets[i]
		fmt.Fprintf(&b, "apiserved_request_duration_seconds_bucket{le=%q} %d\n",
			strconv.FormatFloat(ub, 'g', -1, 64), cum)
	}
	cum += aggBuckets[len(latencyBuckets)]
	fmt.Fprintf(&b, "apiserved_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "apiserved_request_duration_seconds_sum %g\n", aggSum)
	fmt.Fprintf(&b, "apiserved_request_duration_seconds_count %d\n", aggCount)
	fmt.Fprintf(&b, "# HELP apiserved_route_duration_seconds Request latency histogram, per route.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_route_duration_seconds histogram\n")
	for _, route := range routeNames {
		h := a.metrics.routes[route]
		var cum uint64
		for i, ub := range latencyBuckets {
			cum += h.buckets[i].Load()
			fmt.Fprintf(&b, "apiserved_route_duration_seconds_bucket{route=%q,le=%q} %d\n",
				route, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.buckets[len(latencyBuckets)].Load()
		fmt.Fprintf(&b, "apiserved_route_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, cum)
		fmt.Fprintf(&b, "apiserved_route_duration_seconds_sum{route=%q} %g\n", route, float64(h.sumNanos.Load())/1e9)
		fmt.Fprintf(&b, "apiserved_route_duration_seconds_count{route=%q} %d\n", route, h.count.Load())
	}

	adm := a.admission.Stats()
	fmt.Fprintf(&b, "# HELP apiserved_admission_enabled Whether admission control is configured.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_admission_enabled gauge\n")
	fmt.Fprintf(&b, "apiserved_admission_enabled %d\n", boolToInt(adm.Enabled))
	fmt.Fprintf(&b, "# HELP apiserved_admission_inflight Requests currently admitted.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_admission_inflight gauge\n")
	fmt.Fprintf(&b, "apiserved_admission_inflight %d\n", adm.InFlight)
	fmt.Fprintf(&b, "# HELP apiserved_admission_queue_depth Requests waiting for an in-flight slot.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_admission_queue_depth gauge\n")
	fmt.Fprintf(&b, "apiserved_admission_queue_depth %d\n", adm.Queued)
	fmt.Fprintf(&b, "apiserved_admission_inflight_limit %d\n", adm.MaxInFlight)
	fmt.Fprintf(&b, "apiserved_admission_queue_limit %d\n", adm.MaxQueue)
	fmt.Fprintf(&b, "# HELP apiserved_admission_accepted_total Requests admitted past the limiter.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_admission_accepted_total counter\n")
	fmt.Fprintf(&b, "apiserved_admission_accepted_total %d\n", adm.Accepted)
	fmt.Fprintf(&b, "# HELP apiserved_admission_shed_total Requests rejected with 429, by reason.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_admission_shed_total counter\n")
	fmt.Fprintf(&b, "apiserved_admission_shed_total{reason=\"queue_full\"} %d\n", adm.ShedQueueFull)
	fmt.Fprintf(&b, "apiserved_admission_shed_total{reason=\"timeout\"} %d\n", adm.ShedTimeout)
	fmt.Fprintf(&b, "apiserved_admission_shed_total{reason=\"cancelled\"} %d\n", adm.ShedCancelled)

	fmt.Fprintf(&b, "# HELP apiserved_cache_hits_total Encoded byte-cache hits (unlabeled: all endpoints; labeled: per endpoint). Hotset answers are counted by apiserved_hotset_hits_total.\n")
	fmt.Fprintf(&b, "apiserved_cache_hits_total %d\n", st.ByteCacheHits)
	for _, es := range st.Endpoints {
		fmt.Fprintf(&b, "apiserved_cache_hits_total{endpoint=%q} %d\n", es.Endpoint, es.Hits)
	}
	fmt.Fprintf(&b, "# HELP apiserved_cache_misses_total Encoded byte-cache misses (unlabeled: all endpoints; labeled: per endpoint).\n")
	fmt.Fprintf(&b, "apiserved_cache_misses_total %d\n", st.ByteCacheMisses)
	for _, es := range st.Endpoints {
		fmt.Fprintf(&b, "apiserved_cache_misses_total{endpoint=%q} %d\n", es.Endpoint, es.Misses)
	}
	fmt.Fprintf(&b, "# HELP apiserved_cache_evictions_total Encoded byte-cache entries evicted by the byte budget.\n")
	fmt.Fprintf(&b, "apiserved_cache_evictions_total %d\n", st.ByteCacheEvictions)
	for _, es := range st.Endpoints {
		fmt.Fprintf(&b, "apiserved_cache_evictions_total{endpoint=%q} %d\n", es.Endpoint, es.Evictions)
	}
	fmt.Fprintf(&b, "# HELP apiserved_cache_hit_ratio Encoded byte-cache hits over lookups since start.\n")
	fmt.Fprintf(&b, "apiserved_cache_hit_ratio %g\n", st.HitRatio())
	fmt.Fprintf(&b, "# HELP apiserved_cache_bytes Resident bytes in the encoded byte cache.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_cache_bytes gauge\n")
	fmt.Fprintf(&b, "apiserved_cache_bytes %d\n", st.ByteCacheBytes)
	fmt.Fprintf(&b, "apiserved_cache_capacity_bytes %d\n", st.ByteCacheCapacity)
	fmt.Fprintf(&b, "apiserved_cache_byte_entries %d\n", st.ByteCacheEntries)
	fmt.Fprintf(&b, "# HELP apiserved_cache_oversize_total Answers too large to cache, served uncached.\n")
	fmt.Fprintf(&b, "apiserved_cache_oversize_total %d\n", st.ByteCacheOversize)
	fmt.Fprintf(&b, "# HELP apiserved_hotset_hits_total Requests answered from the precomputed per-generation hotset.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_hotset_hits_total counter\n")
	fmt.Fprintf(&b, "apiserved_hotset_hits_total %d\n", st.HotsetHits)
	fmt.Fprintf(&b, "# HELP apiserved_hotset_bytes Pre-encoded bytes resident in the current hotset.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_hotset_bytes gauge\n")
	fmt.Fprintf(&b, "apiserved_hotset_bytes %d\n", st.HotsetBytes)
	fmt.Fprintf(&b, "apiserved_hotset_entries %d\n", st.HotsetEntries)
	fmt.Fprintf(&b, "# HELP apiserved_singleflight_shared_total Cache misses that shared another in-flight compute.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_singleflight_shared_total counter\n")
	fmt.Fprintf(&b, "apiserved_singleflight_shared_total %d\n", st.SingleflightShared)
	fmt.Fprintf(&b, "# HELP apiserved_snapshot_generation Generation of the resident study snapshot.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_snapshot_generation gauge\n")
	fmt.Fprintf(&b, "apiserved_snapshot_generation %d\n", st.Generation)
	fmt.Fprintf(&b, "apiserved_snapshot_packages %d\n", st.Meta.Packages)
	fmt.Fprintf(&b, "apiserved_snapshot_executables %d\n", st.Meta.Executables)
	fmt.Fprintf(&b, "apiserved_analyses_active %d\n", st.AnalysesActive)
	fmt.Fprintf(&b, "apiserved_analyses_total %d\n", st.AnalysesTotal)
	fmt.Fprintf(&b, "apiserved_analyses_rejected_total %d\n", st.AnalysesRejected)

	fmt.Fprintf(&b, "# HELP apiserved_snapshot_reloads_total Background corpus reloads swapped in.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_snapshot_reloads_total counter\n")
	fmt.Fprintf(&b, "apiserved_snapshot_reloads_total %d\n", st.Reloads)
	fmt.Fprintf(&b, "apiserved_snapshot_reloads_failed_total %d\n", st.ReloadsFailed)
	fmt.Fprintf(&b, "# HELP apiserved_snapshot_file_loads_total Snapshot files validated and swapped in.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_snapshot_file_loads_total counter\n")
	fmt.Fprintf(&b, "apiserved_snapshot_file_loads_total %d\n", st.SnapshotLoads)
	fmt.Fprintf(&b, "apiserved_snapshot_file_errors_total %d\n", st.SnapshotLoadErrors)
	fmt.Fprintf(&b, "apiserved_snapshot_fallbacks_total %d\n", st.SnapshotFallbacks)
	fmt.Fprintf(&b, "# HELP apiserved_snapshot_from_file Whether the served study was restored from a snapshot file.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_snapshot_from_file gauge\n")
	fmt.Fprintf(&b, "apiserved_snapshot_from_file %d\n", boolToInt(st.SnapshotFile != ""))
	if a.opts.Snapshots != nil {
		ms := a.opts.Snapshots.Status()
		fmt.Fprintf(&b, "# HELP apiserved_snapshot_installs_total Snapshot pushes installed via /v1/snapshot.\n")
		fmt.Fprintf(&b, "# TYPE apiserved_snapshot_installs_total counter\n")
		fmt.Fprintf(&b, "apiserved_snapshot_installs_total %d\n", ms.Installs)
		fmt.Fprintf(&b, "apiserved_snapshot_rollbacks_total %d\n", ms.Rollbacks)
		fmt.Fprintf(&b, "apiserved_snapshot_rejected_stale_total %d\n", ms.RejectedStale)
		fmt.Fprintf(&b, "apiserved_snapshot_rejected_corrupt_total %d\n", ms.RejectedCorrupt)
	}
	fmt.Fprintf(&b, "# HELP apiserved_anacache_enabled Whether a persistent analysis cache is configured.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_anacache_enabled gauge\n")
	fmt.Fprintf(&b, "apiserved_anacache_enabled %d\n", boolToInt(st.AnacacheOn))
	fmt.Fprintf(&b, "# HELP apiserved_anacache_hits_total Per-binary analysis records served from the persistent cache.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_anacache_hits_total counter\n")
	fmt.Fprintf(&b, "apiserved_anacache_hits_total %d\n", st.Anacache.Hits)
	fmt.Fprintf(&b, "# HELP apiserved_anacache_misses_total Lookups that fell back to re-analysis.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_anacache_misses_total counter\n")
	fmt.Fprintf(&b, "apiserved_anacache_misses_total %d\n", st.Anacache.Misses)
	fmt.Fprintf(&b, "# HELP apiserved_anacache_invalidations_total Records rejected as stale or corrupt.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_anacache_invalidations_total counter\n")
	fmt.Fprintf(&b, "apiserved_anacache_invalidations_total %d\n", st.Anacache.Invalidations)
	fmt.Fprintf(&b, "# HELP apiserved_anacache_writes_total Records persisted to the analysis cache.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_anacache_writes_total counter\n")
	fmt.Fprintf(&b, "apiserved_anacache_writes_total %d\n", st.Anacache.Writes)
	fmt.Fprintf(&b, "apiserved_anacache_write_errors_total %d\n", st.Anacache.WriteErrors)
	fmt.Fprintf(&b, "# HELP apiserved_anacache_hit_ratio Analysis-cache hits over lookups since start.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_anacache_hit_ratio gauge\n")
	fmt.Fprintf(&b, "apiserved_anacache_hit_ratio %g\n", st.Anacache.HitRatio())

	fmt.Fprintf(&b, "# HELP apiserved_snapshot_skipped_files Malformed ELF files skipped while building the snapshot.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_snapshot_skipped_files gauge\n")
	fmt.Fprintf(&b, "apiserved_snapshot_skipped_files %d\n", st.Meta.SkippedFiles)

	fmt.Fprintf(&b, "# HELP apiserved_fleet_enabled Whether a distributed-analysis fleet is configured.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_fleet_enabled gauge\n")
	fmt.Fprintf(&b, "apiserved_fleet_enabled %d\n", boolToInt(st.FleetOn))
	if fs := st.Fleet; fs != nil {
		fmt.Fprintf(&b, "apiserved_fleet_workers %d\n", len(fs.Workers))
		fmt.Fprintf(&b, "apiserved_fleet_workers_healthy %d\n", fs.WorkersHealthy)
		fmt.Fprintf(&b, "# HELP apiserved_fleet_shards_total Shards partitioned across all fleet runs.\n")
		fmt.Fprintf(&b, "# TYPE apiserved_fleet_shards_total counter\n")
		fmt.Fprintf(&b, "apiserved_fleet_shards_total %d\n", fs.ShardsTotal)
		fmt.Fprintf(&b, "# HELP apiserved_fleet_jobs_dispatched_total Shard dispatches sent to workers.\n")
		fmt.Fprintf(&b, "# TYPE apiserved_fleet_jobs_dispatched_total counter\n")
		fmt.Fprintf(&b, "apiserved_fleet_jobs_dispatched_total %d\n", fs.Dispatched)
		fmt.Fprintf(&b, "apiserved_fleet_jobs_retried_total %d\n", fs.Retries)
		fmt.Fprintf(&b, "apiserved_fleet_jobs_hedged_total %d\n", fs.Hedges)
		fmt.Fprintf(&b, "apiserved_fleet_jobs_failed_total %d\n", fs.Failures)
		fmt.Fprintf(&b, "apiserved_fleet_corrupt_responses_total %d\n", fs.CorruptResponses)
		fmt.Fprintf(&b, "apiserved_fleet_local_fallback_shards_total %d\n", fs.LocalFallbackShards)
		fmt.Fprintf(&b, "apiserved_fleet_worker_evictions_total %d\n", fs.Evictions)
		fmt.Fprintf(&b, "apiserved_fleet_worker_readmissions_total %d\n", fs.Readmissions)
		fmt.Fprintf(&b, "# HELP apiserved_fleet_shard_bytes Shard size skew of the most recent partition.\n")
		fmt.Fprintf(&b, "# TYPE apiserved_fleet_shard_bytes gauge\n")
		fmt.Fprintf(&b, "apiserved_fleet_shard_bytes{bound=\"max\"} %d\n", fs.ShardBytesMax)
		fmt.Fprintf(&b, "apiserved_fleet_shard_bytes{bound=\"min\"} %d\n", fs.ShardBytesMin)
		fmt.Fprintf(&b, "# HELP apiserved_fleet_worker_dispatched_total Shard dispatches per worker.\n")
		fmt.Fprintf(&b, "# TYPE apiserved_fleet_worker_dispatched_total counter\n")
		for _, ws := range fs.Workers {
			fmt.Fprintf(&b, "apiserved_fleet_worker_dispatched_total{worker=%q} %d\n", ws.URL, ws.Dispatched)
			fmt.Fprintf(&b, "apiserved_fleet_worker_failures_total{worker=%q} %d\n", ws.URL, ws.Failures)
			fmt.Fprintf(&b, "apiserved_fleet_worker_avg_latency_ms{worker=%q} %g\n", ws.URL, ws.AvgLatencyMs)
			fmt.Fprintf(&b, "apiserved_fleet_worker_evicted{worker=%q} %d\n", ws.URL, boolToInt(ws.Evicted))
		}
	}

	fmt.Fprintf(&b, "# HELP apiserved_evolution_enabled Whether a release series is resident for trend queries.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_evolution_enabled gauge\n")
	fmt.Fprintf(&b, "apiserved_evolution_enabled %d\n", boolToInt(st.EvolutionOn))
	fmt.Fprintf(&b, "# HELP apiserved_evolution_generations Generations resident in the release series.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_evolution_generations gauge\n")
	fmt.Fprintf(&b, "apiserved_evolution_generations %d\n", st.EvolutionGenerations)
	fmt.Fprintf(&b, "# HELP apiserved_evolution_series_installs_total Release series installed over the server's lifetime.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_evolution_series_installs_total counter\n")
	fmt.Fprintf(&b, "apiserved_evolution_series_installs_total %d\n", st.SeriesInstalls)
	fmt.Fprintf(&b, "# HELP apiserved_evolution_trend_queries_total Trend queries answered, by endpoint.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_evolution_trend_queries_total counter\n")
	fmt.Fprintf(&b, "apiserved_evolution_trend_queries_total{endpoint=\"importance\"} %d\n", st.TrendImportanceQueries)
	fmt.Fprintf(&b, "apiserved_evolution_trend_queries_total{endpoint=\"completeness\"} %d\n", st.TrendCompletenessQueries)
	fmt.Fprintf(&b, "apiserved_evolution_trend_queries_total{endpoint=\"path\"} %d\n", st.TrendPathQueries)
	fmt.Fprintf(&b, "# HELP apiserved_evolution_generation_queries_total Ordinary queries retargeted at a series generation via ?gen=.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_evolution_generation_queries_total counter\n")
	fmt.Fprintf(&b, "apiserved_evolution_generation_queries_total %d\n", st.GenerationQueries)
	fmt.Fprintf(&b, "# HELP apiserved_evolution_series_build_seconds Wall time spent building the resident series.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_evolution_series_build_seconds gauge\n")
	fmt.Fprintf(&b, "apiserved_evolution_series_build_seconds %g\n", st.SeriesBuildSeconds)

	fmt.Fprintf(&b, "# HELP apiserved_stubplan_enabled Whether a stub/fake verdict matrix is resident for the current generation.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_stubplan_enabled gauge\n")
	fmt.Fprintf(&b, "apiserved_stubplan_enabled %d\n", boolToInt(st.StubMatrixOn))
	fmt.Fprintf(&b, "# HELP apiserved_stubplan_matrix_builds_total Verdict matrices built over the server's lifetime.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_stubplan_matrix_builds_total counter\n")
	fmt.Fprintf(&b, "apiserved_stubplan_matrix_builds_total %d\n", st.StubMatrixBuilds)
	fmt.Fprintf(&b, "# HELP apiserved_stubplan_plan_queries_total Plan queries answered.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_stubplan_plan_queries_total counter\n")
	fmt.Fprintf(&b, "apiserved_stubplan_plan_queries_total %d\n", st.PlanQueries)
	fmt.Fprintf(&b, "# HELP apiserved_stubplan_binaries Executables classified by the resident verdict matrix.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_stubplan_binaries gauge\n")
	fmt.Fprintf(&b, "apiserved_stubplan_binaries %d\n", st.StubBinaries)
	fmt.Fprintf(&b, "# HELP apiserved_stubplan_emulations_total Emulator runs performed building the resident verdict matrix (zero on a warm verdict cache).\n")
	fmt.Fprintf(&b, "# TYPE apiserved_stubplan_emulations_total counter\n")
	fmt.Fprintf(&b, "apiserved_stubplan_emulations_total %d\n", st.StubEmulations)
	fmt.Fprintf(&b, "# HELP apiserved_stubplan_verdict_cache_total Verdict-cache lookups building the resident matrix, by outcome.\n")
	fmt.Fprintf(&b, "# TYPE apiserved_stubplan_verdict_cache_total counter\n")
	fmt.Fprintf(&b, "apiserved_stubplan_verdict_cache_total{outcome=\"hit\"} %d\n", st.StubCacheHits)
	fmt.Fprintf(&b, "apiserved_stubplan_verdict_cache_total{outcome=\"miss\"} %d\n", st.StubCacheMisses)
	fmt.Fprintf(&b, "# HELP apiserved_stubplan_inconclusive Binaries whose baseline emulation did not complete (no waivers granted).\n")
	fmt.Fprintf(&b, "# TYPE apiserved_stubplan_inconclusive gauge\n")
	fmt.Fprintf(&b, "apiserved_stubplan_inconclusive %d\n", st.StubInconclusive)

	a.writeJobsMetrics(&b)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, b.String())
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ListenAndServe runs handler on addr until ctx is cancelled, then
// drains in-flight requests for up to grace before returning — the
// serve-forever loop of cmd/apiserved, kept here so tests and examples
// reuse the same graceful-shutdown path.
func ListenAndServe(ctx context.Context, addr string, handler http.Handler, grace time.Duration, logger *log.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return Serve(ctx, ln, handler, grace, logger)
}

// Serve is ListenAndServe over an existing listener (which it owns and
// closes): on ctx cancellation the listener closes first — new
// connections are refused immediately — then in-flight requests drain
// for up to grace. Returns http.ErrServerClosed semantics mapped away:
// nil after a clean drain, context.DeadlineExceeded when grace expired
// with requests still in flight.
func Serve(ctx context.Context, ln net.Listener, handler http.Handler, grace time.Duration, logger *log.Logger) error {
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if logger != nil {
		logger.Printf("shutting down, draining for up to %s", grace)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	return srv.Shutdown(shutdownCtx)
}
