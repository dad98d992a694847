// Package proxy is the front tier of replicated serving: a
// health-checked round-robin HTTP proxy over a set of apiserved
// replicas. It exists so a replica can be killed, restarted, or
// rolled back mid-traffic without clients seeing a single 5xx: the
// request body is buffered once, a failed replica attempt is retried
// transparently on the next live replica, and nothing is written to
// the client until a replica has produced a complete response.
package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config tunes a Proxy. Only Replicas is required.
type Config struct {
	// Replicas are base URLs of apiserved instances.
	Replicas []string
	// CheckInterval is how often a down replica is probed via /healthz
	// for re-admission (default 500ms).
	CheckInterval time.Duration
	// RequestTimeout bounds one replica attempt (default 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps buffered request bodies (default 64 MiB —
	// snapshot pushes route through the proxy too).
	MaxBodyBytes int64
	// Client overrides the HTTP client used for proxied requests.
	Client *http.Client
	// Logf receives replica up/down transitions; nil disables logging.
	Logf func(format string, args ...any)
}

func (cfg *Config) withDefaults() {
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 500 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

type replica struct {
	url  string
	up   atomic.Bool
	errs atomic.Uint64 // transport errors against this replica
}

// Proxy round-robins requests over live replicas. A transport error —
// connection refused, reset, timeout — marks the replica down and the
// request is retried on the next live replica; the client only sees a
// 503 when every replica has failed. Application responses, including
// 4xx and 429 sheds, pass through untouched: the replica answered, so
// its answer is the answer.
type Proxy struct {
	cfg      Config
	replicas []*replica
	next     atomic.Uint64
	start    time.Time

	requests     atomic.Uint64
	retries      atomic.Uint64
	exhausted    atomic.Uint64
	transitions  atomic.Uint64
	readmissions atomic.Uint64

	mux *http.ServeMux
}

// New creates the proxy. All replicas start up; the health prober
// (started by Run) handles the rest.
func New(cfg Config) *Proxy {
	cfg.withDefaults()
	p := &Proxy{cfg: cfg, start: time.Now()}
	for _, u := range cfg.Replicas {
		r := &replica{url: strings.TrimRight(u, "/")}
		r.up.Store(true)
		p.replicas = append(p.replicas, r)
	}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("GET /healthz", p.handleHealthz)
	p.mux.HandleFunc("GET /metrics", obs.Handler(p.writeMetrics))
	p.mux.HandleFunc("/", p.handleProxy)
	return p
}

// Run starts the background health prober and blocks until ctx is
// cancelled. The proxy serves before Run is called; the prober only
// re-admits replicas marked down by failed requests.
func (p *Proxy) Run(ctx context.Context) {
	tick := time.NewTicker(p.cfg.CheckInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			p.probe(ctx)
		}
	}
}

// probe re-checks every down replica once, concurrently.
func (p *Proxy) probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range p.replicas {
		if r.up.Load() {
			continue
		}
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			if p.healthy(ctx, r) {
				r.up.Store(true)
				p.readmissions.Add(1)
				p.cfg.Logf("proxy: replica %s re-admitted", r.url)
			}
		}(r)
	}
	wg.Wait()
}

// healthy reports whether the replica answers /healthz with 200. A
// 503 "awaiting snapshot" replica is alive but not servable, so it
// stays out of rotation until a snapshot lands.
func (p *Proxy) healthy(ctx context.Context, r *replica) bool {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (p *Proxy) markDown(r *replica) {
	if r.up.CompareAndSwap(true, false) {
		p.transitions.Add(1)
		p.cfg.Logf("proxy: replica %s marked down", r.url)
	}
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mux.ServeHTTP(w, r)
}

// liveOrder returns every replica starting at the round-robin cursor,
// live ones first; down replicas are included at the tail as a last
// resort (the prober may simply not have re-admitted them yet).
func (p *Proxy) liveOrder() []*replica {
	n := len(p.replicas)
	start := int(p.next.Add(1)) % n
	ordered := make([]*replica, 0, n)
	var down []*replica
	for i := 0; i < n; i++ {
		r := p.replicas[(start+i)%n]
		if r.up.Load() {
			ordered = append(ordered, r)
		} else {
			down = append(down, r)
		}
	}
	return append(ordered, down...)
}

func (p *Proxy) handleProxy(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.cfg.MaxBodyBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":"reading request body: %v"}`, err), http.StatusBadRequest)
		return
	}
	var lastErr error
	for attempt, rep := range p.liveOrder() {
		if attempt > 0 {
			p.retries.Add(1)
		}
		resp, rerr := p.attempt(r, rep, body)
		if rerr != nil {
			rep.errs.Add(1)
			p.markDown(rep)
			lastErr = rerr
			continue
		}
		// The replica produced a complete response — relay it verbatim.
		// Headers only now: nothing was written during failed attempts,
		// so retries are invisible to the client.
		h := w.Header()
		for k, vs := range resp.header {
			h[k] = vs
		}
		for _, hop := range hopHeaders {
			h.Del(hop)
		}
		w.WriteHeader(resp.code)
		w.Write(resp.body)
		return
	}
	p.exhausted.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, `{"error":"no live replica: %v"}`+"\n", lastErr)
}

// hopHeaders are connection-scoped and must not cross the proxy.
var hopHeaders = []string{"Connection", "Keep-Alive", "Proxy-Connection", "Transfer-Encoding", "Upgrade"}

// bufferedResponse is a fully-read replica response. Buffering the
// whole body before touching the client is what makes mid-response
// replica death retryable.
type bufferedResponse struct {
	code   int
	header http.Header
	body   []byte
}

// attempt forwards the buffered request to one replica and reads the
// complete response. Any transport-level failure — dial, reset,
// timeout, truncated body — returns an error so the caller can retry
// on another replica.
func (p *Proxy) attempt(r *http.Request, rep *replica, body []byte) (*bufferedResponse, error) {
	ctx, cancel := context.WithTimeout(r.Context(), p.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, r.Method, rep.url+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	for _, hop := range hopHeaders {
		req.Header.Del(hop)
	}
	resp, err := p.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &bufferedResponse{code: resp.StatusCode, header: resp.Header.Clone(), body: respBody}, nil
}

// handleHealthz reports 200 iff at least one replica is in rotation.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := 0
	for _, rep := range p.replicas {
		if rep.up.Load() {
			up++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	code := http.StatusOK
	status := "ok"
	if up == 0 {
		code = http.StatusServiceUnavailable
		status = "no live replicas"
	}
	w.WriteHeader(code)
	fmt.Fprintf(w, `{"status":%q,"replicas":%d,"up":%d,"uptime_seconds":%d}`+"\n",
		status, len(p.replicas), up, int64(time.Since(p.start).Seconds()))
}

func (p *Proxy) writeMetrics(w *obs.Writer) {
	obs.Counter(w, "apiproxy_requests_total", "Requests accepted by the proxy.", p.requests.Load())
	obs.Counter(w, "apiproxy_retries_total", "Requests retried on another replica after a transport failure.", p.retries.Load())
	obs.Counter(w, "apiproxy_exhausted_total", "Requests that failed on every replica.", p.exhausted.Load())
	obs.Counter(w, "apiproxy_replica_down_total", "Replica down transitions.", p.transitions.Load())
	obs.Counter(w, "apiproxy_replica_readmissions_total", "Down replicas re-admitted after a healthy probe.", p.readmissions.Load())
	w.Family("apiproxy_replica_up", obs.TypeGauge, "Whether each replica is in rotation.")
	for _, rep := range p.replicas {
		obs.Sample(w, rep.up.Load(), "replica", rep.url)
	}
	w.Family("apiproxy_replica_errors_total", obs.TypeCounter, "Transport errors per replica.")
	for _, rep := range p.replicas {
		obs.Sample(w, rep.errs.Load(), "replica", rep.url)
	}
}
