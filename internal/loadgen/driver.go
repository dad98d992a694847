package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Options configures one measurement run.
type Options struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client is the HTTP client (nil: a pooled client with a 30s
	// timeout sized for Workers/OutstandingMax connections).
	Client *http.Client
	// Handler, when set (and Client is nil), dispatches every request
	// straight into the handler in-process instead of over a socket.
	// This measures the serving stack itself — routing, caches,
	// encoding — without kernel networking noise, which is what a
	// read-path throughput ceiling wants. BaseURL may be left empty.
	Handler http.Handler

	// Mode selects the driver: ModeClosed or ModeOpen.
	Mode string
	// Workers is the closed-loop concurrency (default 8). In open-loop
	// mode it only seeds determinism of the generator sharding.
	Workers int
	// RPS is the open-loop constant arrival rate (required for ModeOpen).
	RPS float64
	// OutstandingMax caps concurrently outstanding open-loop requests
	// so an unresponsive server exhausts a budget, not the fd table
	// (default 512). Arrivals beyond the cap still start their latency
	// clock on schedule — the wait for a slot is measured, which is
	// exactly what coordinated-omission safety means.
	OutstandingMax int

	// Duration is the measured interval per run (default 10s); Warmup
	// is discarded before it (default 0).
	Duration time.Duration
	Warmup   time.Duration

	// Mix is the endpoint mix (nil: DefaultMix).
	Mix Mix
	// Seed makes the synthesized request stream deterministic.
	Seed int64
}

// Driver modes.
const (
	ModeClosed = "closed"
	ModeOpen   = "open"
)

// EndpointReport is the measured latency distribution of one endpoint
// (or the overall stream). Quantiles are in milliseconds, measured
// from the scheduled arrival in open-loop mode.
type EndpointReport struct {
	Requests uint64            `json:"requests"`
	Codes    map[string]uint64 `json:"codes"`
	// Errors counts transport-level failures (connect, timeout); they
	// are included in the latency distribution at their observed cost.
	Errors uint64  `json:"errors,omitempty"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Report is one run's result — the JSON cmd/apiload emits and
// cmd/benchgate gates.
type Report struct {
	Mode            string  `json:"mode"`
	TargetRPS       float64 `json:"target_rps,omitempty"`
	Workers         int     `json:"workers,omitempty"`
	DurationSeconds float64 `json:"duration_seconds"`
	WarmupSeconds   float64 `json:"warmup_seconds"`
	// AchievedRPS is measured completions over the post-warmup window.
	AchievedRPS float64 `json:"achieved_rps"`
	// WarmupRequests completed during warmup and are excluded from
	// every distribution below.
	WarmupRequests uint64 `json:"warmup_requests"`
	// Shed429 counts admission-shed responses; HTTP5xx counts server
	// errors (the SLO gate requires zero).
	Shed429 uint64 `json:"shed_429"`
	HTTP5xx uint64 `json:"http_5xx"`

	Overall EndpointReport `json:"overall"`
	// Accepted is the latency distribution of requests that made it past
	// admission control (everything but 429s and transport failures) —
	// the population the serving SLO is stated over: shedding is allowed
	// under overload, but what the server does accept must stay fast.
	Accepted  EndpointReport            `json:"accepted"`
	Endpoints map[string]EndpointReport `json:"endpoints"`
}

// RampStage is one step of a ramp profile.
type RampStage struct {
	RPS    float64 `json:"rps"`
	Pass   bool    `json:"pass"`
	Report *Report `json:"report"`
}

// RampReport is the result of a find-max-RPS ramp: each stage's
// report, and the highest arrival rate whose p99 met the target with
// no 5xx responses.
type RampReport struct {
	SLOP99Ms      float64     `json:"slo_p99_ms"`
	Stages        []RampStage `json:"stages"`
	MaxPassingRPS float64     `json:"max_passing_rps"`
}

// collector aggregates observations from driver goroutines. One mutex
// suffices: even at thousands of RPS the critical section is a few
// array increments, invisible next to a network round-trip.
type collector struct {
	mu       sync.Mutex
	overall  Hist
	accepted Hist
	eps      map[string]*epAgg
	warmup   uint64
}

type epAgg struct {
	hist   Hist
	codes  map[int]uint64
	errors uint64
}

func newCollector() *collector { return &collector{eps: make(map[string]*epAgg)} }

func (c *collector) record(endpoint string, d time.Duration, code int, failed, inWarmup bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if inWarmup {
		c.warmup++
		return
	}
	ep := c.eps[endpoint]
	if ep == nil {
		ep = &epAgg{codes: make(map[int]uint64)}
		c.eps[endpoint] = ep
	}
	ep.hist.Record(d)
	c.overall.Record(d)
	if !failed && code != http.StatusTooManyRequests {
		c.accepted.Record(d)
	}
	if failed {
		ep.errors++
	} else {
		ep.codes[code]++
	}
}

func epReport(h *Hist, codes map[int]uint64, errors uint64) EndpointReport {
	ms := func(d time.Duration) float64 {
		return math.Round(float64(d)/float64(time.Millisecond)*1000) / 1000
	}
	r := EndpointReport{
		Requests: h.Count(),
		Codes:    map[string]uint64{},
		Errors:   errors,
		P50Ms:    ms(h.Quantile(0.50)),
		P90Ms:    ms(h.Quantile(0.90)),
		P99Ms:    ms(h.Quantile(0.99)),
		P999Ms:   ms(h.Quantile(0.999)),
		MeanMs:   ms(h.Mean()),
		MaxMs:    ms(h.Max()),
	}
	for code, n := range codes {
		r.Codes[strconv.Itoa(code)] = n
	}
	return r
}

func (c *collector) report(opts Options) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := &Report{
		Mode:            opts.Mode,
		DurationSeconds: opts.Duration.Seconds(),
		WarmupSeconds:   opts.Warmup.Seconds(),
		WarmupRequests:  c.warmup,
		Endpoints:       map[string]EndpointReport{},
	}
	if opts.Mode == ModeOpen {
		rep.TargetRPS = opts.RPS
	} else {
		rep.Workers = opts.Workers
	}
	var codes map[int]uint64
	var errs uint64
	codes = map[int]uint64{}
	for name, ep := range c.eps {
		rep.Endpoints[name] = epReport(&ep.hist, ep.codes, ep.errors)
		for code, n := range ep.codes {
			codes[code] += n
		}
		errs += ep.errors
	}
	rep.Overall = epReport(&c.overall, codes, errs)
	rep.Accepted = epReport(&c.accepted, nil, 0)
	for code, n := range codes {
		switch {
		case code == http.StatusTooManyRequests:
			rep.Shed429 += n
		case code >= 500:
			rep.HTTP5xx += n
		}
	}
	measured := opts.Duration.Seconds()
	if measured > 0 {
		rep.AchievedRPS = math.Round(float64(c.overall.Count())/measured*100) / 100
	}
	return rep
}

func defaultClient(conns int) *http.Client {
	if conns < 64 {
		conns = 64
	}
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     0,
		IdleConnTimeout:     90 * time.Second,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}
}

// fire sends one request and returns its status code (0 on transport
// failure). A FollowJob request is measured end to end: the submission
// plus long-polling the returned job to a terminal state.
func fire(client *http.Client, baseURL string, req Request) (int, bool) {
	var body io.Reader
	if req.Body != nil {
		body = bytes.NewReader(req.Body)
	}
	hr, err := http.NewRequest(req.Method, baseURL+req.Path, body)
	if err != nil {
		return 0, true
	}
	if req.ContentType != "" {
		hr.Header.Set("Content-Type", req.ContentType)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return 0, true
	}
	if !req.FollowJob || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, false
	}
	var job struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	if err != nil || job.ID == "" {
		return 0, true
	}
	return followJob(client, baseURL, job.ID, job.State)
}

// followJob long-polls one job until it is terminal: done reports as
// 200, failed/dead as 500 (a job the server accepted but could not
// finish is a server error for SLO purposes). The iteration bound only
// guards against a stuck server; each poll parks server-side in the
// job tier's waiter list, not in a busy loop.
func followJob(client *http.Client, baseURL, id, state string) (int, bool) {
	for i := 0; i < 30; i++ {
		switch state {
		case "done":
			return http.StatusOK, false
		case "failed", "dead":
			return http.StatusInternalServerError, false
		}
		resp, err := client.Get(baseURL + "/v1/jobs/" + id + "?wait=2s")
		if err != nil {
			return 0, true
		}
		var job struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return 0, true
		}
		state = job.State
	}
	return 0, true
}

// handlerTransport is an http.RoundTripper that serves each request by
// calling a handler directly, buffering the response in memory. It
// keeps the whole loadgen pipeline — generators, pacing, collectors,
// reports — usable against an in-process API with zero sockets.
type handlerTransport struct{ h http.Handler }

// memResponse is the in-memory http.ResponseWriter behind
// handlerTransport.
type memResponse struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func (w *memResponse) Header() http.Header { return w.header }
func (w *memResponse) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *memResponse) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(p)
}

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &memResponse{header: make(http.Header)}
	t.h.ServeHTTP(w, req)
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return &http.Response{
		StatusCode:    w.code,
		Status:        http.StatusText(w.code),
		Header:        w.header,
		Body:          io.NopCloser(&w.body),
		ContentLength: int64(w.body.Len()),
		Request:       req,
		Proto:         "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}, nil
}

// Run drives one measurement pass and returns its report.
func Run(ctx context.Context, profile *Profile, opts Options) (*Report, error) {
	if opts.Client == nil && opts.Handler != nil {
		opts.Client = &http.Client{Transport: handlerTransport{opts.Handler}}
		if opts.BaseURL == "" {
			opts.BaseURL = "http://inproc"
		}
	}
	if opts.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if opts.Mode == "" {
		opts.Mode = ModeClosed
	}
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Duration <= 0 {
		opts.Duration = 10 * time.Second
	}
	if opts.OutstandingMax <= 0 {
		opts.OutstandingMax = 512
	}
	if opts.Client == nil {
		opts.Client = defaultClient(max(opts.Workers, opts.OutstandingMax))
	}
	switch opts.Mode {
	case ModeClosed:
		return runClosed(ctx, profile, opts)
	case ModeOpen:
		if opts.RPS <= 0 {
			return nil, fmt.Errorf("loadgen: open-loop mode requires RPS > 0")
		}
		return runOpen(ctx, profile, opts)
	default:
		return nil, fmt.Errorf("loadgen: unknown mode %q", opts.Mode)
	}
}

// runClosed is the fixed-concurrency driver: Workers goroutines, each
// generating, sending, and waiting for one request at a time. Latency
// is response time; throughput floats with server speed. This is the
// driver for capacity questions ("how fast can N clients go?").
func runClosed(ctx context.Context, profile *Profile, opts Options) (*Report, error) {
	col := newCollector()
	start := time.Now()
	warmupEnd := start.Add(opts.Warmup)
	end := warmupEnd.Add(opts.Duration)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		gen, err := NewGenerator(profile, opts.Mix, opts.Seed+int64(w)*7919)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				if t0.After(end) {
					return
				}
				req := gen.Next()
				code, failed := fire(opts.Client, opts.BaseURL, req)
				col.record(req.Endpoint, time.Since(t0), code, failed, t0.Before(warmupEnd))
			}
		}()
	}
	wg.Wait()
	return col.report(opts), nil
}

// runOpen is the constant-arrival-rate driver. Arrival i is scheduled
// at start + i/RPS independently of how the server is doing, and its
// latency is measured from that *scheduled* instant — if the server
// stalls for a second, the requests that should have happened during
// the stall exist and observe the stall, rather than silently not
// arriving (coordinated omission). A capped number may be outstanding
// at once; waiting for the cap is part of the measured latency.
func runOpen(ctx context.Context, profile *Profile, opts Options) (*Report, error) {
	col := newCollector()
	gen, err := NewGenerator(profile, opts.Mix, opts.Seed)
	if err != nil {
		return nil, err
	}
	interval := time.Duration(float64(time.Second) / opts.RPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	warmupEnd := start.Add(opts.Warmup)
	end := warmupEnd.Add(opts.Duration)
	sem := make(chan struct{}, opts.OutstandingMax)
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		scheduled := start.Add(time.Duration(i) * interval)
		if scheduled.After(end) {
			break
		}
		if d := time.Until(scheduled); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		} else if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// The generator is not goroutine-safe; synthesize on the pacer
		// goroutine (microseconds), send on a worker goroutine.
		req := gen.Next()
		inWarmup := scheduled.Before(warmupEnd)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			code, failed := fire(opts.Client, opts.BaseURL, req)
			col.record(req.Endpoint, time.Since(scheduled), code, failed, inWarmup)
		}()
	}
	wg.Wait()
	return col.report(opts), nil
}

// Ramp runs successive open-loop stages from startRPS, stepping by
// stepRPS up to maxRPS, and reports the highest arrival rate whose
// post-warmup p99 stayed within sloP99 with zero 5xx responses — "find
// max RPS at a p99 target". Stages keep running past the first failure
// only if a later stage could still pass (they can't: load is
// monotone), so the ramp stops at the first failing stage.
func Ramp(ctx context.Context, profile *Profile, opts Options, startRPS, stepRPS, maxRPS, sloP99Ms float64) (*RampReport, error) {
	if startRPS <= 0 || stepRPS <= 0 || maxRPS < startRPS {
		return nil, fmt.Errorf("loadgen: bad ramp %g:%g:%g", startRPS, stepRPS, maxRPS)
	}
	ramp := &RampReport{SLOP99Ms: sloP99Ms}
	for rps := startRPS; rps <= maxRPS+1e-9; rps += stepRPS {
		stage := opts
		stage.Mode = ModeOpen
		stage.RPS = rps
		rep, err := Run(ctx, profile, stage)
		if err != nil {
			return nil, err
		}
		pass := rep.Overall.P99Ms <= sloP99Ms && rep.HTTP5xx == 0
		ramp.Stages = append(ramp.Stages, RampStage{RPS: rps, Pass: pass, Report: rep})
		if !pass {
			break
		}
		ramp.MaxPassingRPS = rps
	}
	return ramp, nil
}

// CeilingStage is one fixed-concurrency step of a throughput ceiling
// search.
type CeilingStage struct {
	Workers int     `json:"workers"`
	RPS     float64 `json:"rps"`
	Pass    bool    `json:"pass"`
	Report  *Report `json:"report"`
}

// CeilingReport is the result of a max-throughput search: closed-loop
// stages at increasing concurrency, and the highest accepted-request
// rate observed while the accepted p99 stayed within the SLO with zero
// 5xx and zero transport errors.
type CeilingReport struct {
	SLOP99Ms       float64        `json:"slo_p99_ms"`
	Stages         []CeilingStage `json:"stages"`
	MaxRPSUnderSLO float64        `json:"max_rps_under_slo"`
	BestWorkers    int            `json:"best_workers,omitempty"`
}

// Ceiling measures a server's maximum sustainable throughput: for each
// worker count in workersSeq it runs a closed-loop stage and scores the
// completion rate, keeping the best rate among stages whose accepted
// p99 met sloP99Ms with no 5xx and no transport errors. Closed-loop
// stepping self-paces — past saturation the rate plateaus while the
// p99 climbs out of SLO, so the reported ceiling is the knee of the
// curve, not an open-loop overload artifact.
func Ceiling(ctx context.Context, profile *Profile, opts Options, workersSeq []int, sloP99Ms float64) (*CeilingReport, error) {
	if len(workersSeq) == 0 {
		return nil, fmt.Errorf("loadgen: ceiling requires at least one worker count")
	}
	out := &CeilingReport{SLOP99Ms: sloP99Ms}
	for _, workers := range workersSeq {
		if workers <= 0 {
			return nil, fmt.Errorf("loadgen: bad ceiling worker count %d", workers)
		}
		stage := opts
		stage.Mode = ModeClosed
		stage.Workers = workers
		rep, err := Run(ctx, profile, stage)
		if err != nil {
			return nil, err
		}
		rate := 0.0
		if d := stage.Duration.Seconds(); d > 0 {
			rate = math.Round(float64(rep.Accepted.Requests)/d*100) / 100
		}
		pass := rep.Accepted.Requests > 0 &&
			rep.Accepted.P99Ms <= sloP99Ms &&
			rep.HTTP5xx == 0 && rep.Overall.Errors == 0
		out.Stages = append(out.Stages, CeilingStage{
			Workers: workers, RPS: rate, Pass: pass, Report: rep,
		})
		if pass && rate > out.MaxRPSUnderSLO {
			out.MaxRPSUnderSLO = rate
			out.BestWorkers = workers
		}
	}
	return out, nil
}

// SortedEndpoints returns the report's endpoint names in stable order.
func (r *Report) SortedEndpoints() []string {
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
