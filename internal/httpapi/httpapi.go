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
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/service"
)

// Options tunes the HTTP layer.
type Options struct {
	// Logger receives one line per request; nil disables request logging.
	Logger *log.Logger
	// RequestTimeout bounds each handler, including queue time in the
	// analysis pool (default 30s).
	RequestTimeout time.Duration
	// MaxUploadBytes caps /v1/analyze request bodies (default 32 MiB),
	// and twice it caps job submission bodies.
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
	routes    []*routeStats // sorted by route once New has wired the mux
	admission *service.Admission
}

// New wires every endpoint onto a fresh mux: the query routes, plus
// the job and snapshot-admin groups when their owners are set.
func New(svc *service.Service, opts Options) *API {
	a := newAPI(svc, opts)
	a.mountQueries()
	if opts.Jobs != nil {
		a.mountJobs()
	}
	if opts.Snapshots != nil {
		a.mountSnapshots()
	}
	sort.Slice(a.routes, func(i, j int) bool { return a.routes[i].route < a.routes[j].route })
	return a
}

// newAPI is the shell every route group shares: opts with their
// defaults, an empty mux, and the admission limiter handle consults.
// ServeHTTP and handle are the rest of it.
func newAPI(svc *service.Service, opts Options) *API {
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
	return &API{
		svc:   svc,
		opts:  opts,
		mux:   http.NewServeMux(),
		start: time.Now(),
		admission: service.NewAdmission(service.AdmissionConfig{
			MaxInFlight: opts.MaxInFlight,
			MaxQueue:    opts.MaxQueue,
			QueueWait:   opts.QueueWait,
		}),
	}
}

// mountQueries wires the study's query routes, /healthz and /metrics.
func (a *API) mountQueries() {
	a.handle("GET /healthz", a.handleHealthz, bypassAdmission)
	a.handle("GET /metrics", obs.Handler(a.writeMetrics), bypassAdmission)
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
}

// ServeHTTP resolves the request ID first, so even responses produced
// outside a registered route (404s, 405s, and the 301s that send an
// unclean path such as /v1/jobs//x to its cleaned form) echo one and
// wear the JSON error envelope.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r, rid := withRequestID(w, r)
	// Every route is the http.HandlerFunc that handle registers; for a
	// path it must clean, the mux returns its own redirect handler.
	h, pattern := a.mux.Handler(r)
	if _, route := h.(http.HandlerFunc); pattern == "" || !route {
		// Replay the mux into a recorder to keep its exact verdict (404,
		// 405 with Allow, 301 with Location) but re-dress the body.
		rec := &recordedResponse{header: make(http.Header)}
		a.mux.ServeHTTP(rec, r)
		for _, k := range [...]string{"Allow", "Location"} {
			if v := rec.header.Get(k); v != "" {
				w.Header().Set(k, v)
			}
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
	rs := &routeStats{route: pattern, hist: obs.NewHistogram(time.Second, latencyBuckets)}
	a.routes = append(a.routes, rs)
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
		rs.observe(sw.code, elapsed)
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

// routeStats is one route's counters: per-status-code request counts
// and a latency histogram over latencyBuckets — per route because a
// global histogram lets a slow endpoint's tail (/v1/analyze
// disassembles uploads) hide a regression in a fast one
// (/v1/importance is a map probe). Each route's handler holds its own
// routeStats, so observing a request is atomic adds: the metrics layer
// adds no shared lock to the request path it is measuring.
type routeStats struct {
	route string
	codes [600]atomic.Uint64 // indexed by HTTP status code
	hist  *obs.Histogram
}

func (rs *routeStats) observe(code int, d time.Duration) {
	if code < 0 || code >= len(rs.codes) {
		code = len(rs.codes) - 1
	}
	rs.codes[code].Add(1)
	rs.hist.Observe(d)
}

// writeMetrics writes the /metrics page: this layer's per-route request
// families, then the families each subsystem owns.
func (a *API) writeMetrics(w *obs.Writer) {
	w.Family("apiserved_requests_total", obs.TypeCounter, "Requests served, by route and status code.")
	for _, rs := range a.routes {
		for code := range rs.codes {
			if n := rs.codes[code].Load(); n > 0 {
				obs.Sample(w, n, "route", rs.route, "code", strconv.Itoa(code))
			}
		}
	}
	// The aggregate (unlabeled) histogram keeps the long-standing series
	// alive for dashboards; the per-route series are the ones that catch
	// a single endpoint's tail regressing.
	agg := obs.NewHistogram(time.Second, latencyBuckets)
	for _, rs := range a.routes {
		agg.Merge(rs.hist)
	}
	w.Family("apiserved_request_duration_seconds", obs.TypeHistogram, "Request latency histogram (aggregate over routes).")
	w.Histogram(agg)
	w.Family("apiserved_route_duration_seconds", obs.TypeHistogram, "Request latency histogram, per route.")
	for _, rs := range a.routes {
		w.Histogram(rs.hist, "route", rs.route)
	}
	a.admission.WriteMetrics(w)
	a.svc.WriteMetrics(w)
	a.opts.Snapshots.WriteMetrics(w)
	a.opts.Jobs.WriteMetrics(w)
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
