package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/anacache"
	"repro/internal/core"
	"repro/internal/footprint"
	"repro/internal/obs"
)

// Config tunes a Coordinator. The zero value of every knob has a sane
// default; only Workers is required for remote analysis (with none, every
// run degrades to local in-process analysis).
type Config struct {
	// Workers are base URLs of apiworker instances, e.g.
	// "http://127.0.0.1:8841".
	Workers []string
	// Shards is the number of partitions per run (default 4 shards per
	// worker, minimum 1) — more shards than workers keeps the fleet
	// load-balanced when per-shard cost is uneven.
	Shards int
	// JobTimeout bounds one shard dispatch end to end (default 2m).
	JobTimeout time.Duration
	// MaxRetries is how many failed dispatches a shard may accumulate
	// before it is pulled back for local analysis (default 3).
	MaxRetries int
	// RetryBackoff is the base delay before a failed shard re-enters the
	// queue, doubled per failure up to MaxBackoff, plus jitter
	// (defaults 100ms and 2s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// HedgeAfter re-dispatches a shard still outstanding after this long
	// to an idle worker; first response wins (default 30s).
	HedgeAfter time.Duration
	// FailureLimit is how many consecutive failures evict a worker
	// (default 3); an evicted worker is probed via /healthz every
	// EvictFor (default 15s) and re-admitted once it answers.
	FailureLimit int
	EvictFor     time.Duration
	// Cache, when non-nil, backs local fallback analysis.
	Cache *anacache.Cache
	// Client overrides the HTTP client (default: http.DefaultClient
	// semantics with per-dispatch timeouts from JobTimeout).
	Client *http.Client
	// Logf receives coordinator progress lines; nil disables logging.
	Logf func(format string, args ...any)
}

func (cfg *Config) withDefaults() {
	if cfg.Shards < 1 {
		cfg.Shards = 4 * len(cfg.Workers)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 2 * time.Minute
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.HedgeAfter <= 0 {
		cfg.HedgeAfter = 30 * time.Second
	}
	if cfg.FailureLimit <= 0 {
		cfg.FailureLimit = 3
	}
	if cfg.EvictFor <= 0 {
		cfg.EvictFor = 15 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// Coordinator partitions job lists into shards and drives them through a
// fleet of HTTP workers. It is safe for concurrent use and long-lived:
// worker health and all counters persist across runs, so a service that
// reloads snapshots keeps its view of which workers are trustworthy.
type Coordinator struct {
	cfg     Config
	workers []*workerState

	shardsTotal   atomic.Uint64
	dispatched    atomic.Uint64
	retries       atomic.Uint64
	hedges        atomic.Uint64
	failures      atomic.Uint64
	corrupt       atomic.Uint64
	localFallback atomic.Uint64
	evictions     atomic.Uint64
	readmissions  atomic.Uint64
	lastBytesMax  atomic.Int64
	lastBytesMin  atomic.Int64
}

type workerState struct {
	url string

	mu           sync.Mutex
	dispatched   uint64
	failures     uint64
	latencySum   time.Duration
	latencyCount uint64
	consecFails  int
	evicted      bool
	lastErr      string
}

// New builds a Coordinator over cfg.Workers. It never dials anything at
// construction time; unreachable workers are discovered (and evicted)
// during runs.
func New(cfg Config) *Coordinator {
	cfg.withDefaults()
	c := &Coordinator{cfg: cfg}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &workerState{url: u})
	}
	return c
}

// Workers reports the configured worker URLs.
func (c *Coordinator) Workers() []string {
	urls := make([]string, len(c.workers))
	for i, w := range c.workers {
		urls[i] = w.url
	}
	return urls
}

// AnalyzeJobs satisfies core.JobAnalyzer: it partitions jobs into
// deterministic shards, dispatches them across the fleet, and returns one
// result per job in order. Every shard is claimed exactly once — by the
// first successful dispatch (original, retry, or hedge) or by the local
// fallback — so faults never lose or duplicate a binary.
func (c *Coordinator) AnalyzeJobs(jobs []core.BinaryJob, opts footprint.Options) []core.JobResult {
	results := make([]core.JobResult, len(jobs))
	shards := Partition(jobs, c.cfg.Shards)
	if len(shards) == 0 {
		return results
	}
	c.shardsTotal.Add(uint64(len(shards)))
	maxB, minB := skew(shards)
	c.lastBytesMax.Store(maxB)
	c.lastBytesMin.Store(minB)

	if len(c.workers) == 0 {
		c.cfg.Logf("fleet: no workers configured; analyzing %d shards locally", len(shards))
		c.localFallback.Add(uint64(len(shards)))
		return core.AnalyzeJobsLocal(jobs, opts, c.cfg.Cache)
	}

	r := &run{
		c:       c,
		jobs:    jobs,
		opts:    opts,
		shards:  shards,
		results: results,
		state:   make([]shardState, len(shards)),
		done:    make(chan struct{}),
		dead:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	r.remaining.Store(int64(len(shards)))
	for _, w := range c.workers {
		w.mu.Lock()
		if !w.evicted {
			r.live.Add(1)
		}
		w.mu.Unlock()
	}
	if r.live.Load() == 0 {
		r.deadOnce.Do(func() { close(r.dead) })
	}
	for i := range shards {
		r.push(i)
	}

	var wg sync.WaitGroup
	for _, w := range c.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			r.workerLoop(w)
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.hedger()
	}()

	select {
	case <-r.done:
	case <-r.dead:
		c.cfg.Logf("fleet: all workers evicted; falling back to local analysis")
	}
	close(r.stop)
	r.closeQueue()
	wg.Wait()

	// Claim whatever the fleet did not finish — shards whose retries were
	// exhausted plus, after a dead fleet, everything still outstanding —
	// and analyze it in-process in one batch.
	var localJobs []core.BinaryJob
	var localIdx []int
	r.mu.Lock()
	for si := range r.state {
		if r.state[si].claimed {
			continue
		}
		r.state[si].claimed = true
		c.localFallback.Add(1)
		for _, ji := range r.shards[si].Jobs {
			localJobs = append(localJobs, jobs[ji])
			localIdx = append(localIdx, ji)
		}
	}
	r.mu.Unlock()
	if len(localJobs) > 0 {
		c.cfg.Logf("fleet: analyzing %d binaries locally", len(localJobs))
		local := core.AnalyzeJobsLocal(localJobs, opts, c.cfg.Cache)
		for k, ji := range localIdx {
			results[ji] = local[k]
		}
	}
	return results
}

type shardState struct {
	claimed  bool
	local    bool // exhausted retries; reserved for the post-run local batch
	failures int
	inflight int
	started  time.Time
	hedges   int
}

type run struct {
	c       *Coordinator
	jobs    []core.BinaryJob
	opts    footprint.Options
	shards  []Shard
	results []core.JobResult

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []int
	closed bool
	state  []shardState

	remaining atomic.Int64
	live      atomic.Int64
	inflight  atomic.Int64

	done     chan struct{}
	doneOnce sync.Once
	dead     chan struct{}
	deadOnce sync.Once
	stop     chan struct{}
}

func (r *run) push(si int) {
	r.mu.Lock()
	if !r.closed {
		r.queue = append(r.queue, si)
		r.cond.Signal()
	}
	r.mu.Unlock()
}

func (r *run) pop() (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for len(r.queue) > 0 {
			si := r.queue[0]
			r.queue = r.queue[1:]
			if r.state[si].claimed || r.state[si].local {
				continue
			}
			return si, true
		}
		if r.closed {
			return 0, false
		}
		r.cond.Wait()
	}
}

func (r *run) closeQueue() {
	r.mu.Lock()
	r.closed = true
	r.queue = nil
	r.cond.Broadcast()
	r.mu.Unlock()
}

func (r *run) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *run) workerLoop(w *workerState) {
	for {
		w.mu.Lock()
		evicted := w.evicted
		w.mu.Unlock()
		if evicted {
			if !r.waitReadmit(w) {
				return
			}
			continue
		}
		si, ok := r.pop()
		if !ok {
			return
		}
		r.dispatch(w, si)
	}
}

// dispatch runs one shard attempt against one worker and handles the
// outcome: first success claims the shard and merges its results; a
// failure schedules a backed-off retry, pulls the shard local once
// retries are exhausted, and evicts the worker after too many
// consecutive failures.
func (r *run) dispatch(w *workerState, si int) {
	c := r.c
	r.mu.Lock()
	st := &r.state[si]
	if st.claimed || st.local {
		r.mu.Unlock()
		return
	}
	st.inflight++
	if st.inflight == 1 {
		st.started = time.Now()
	}
	r.mu.Unlock()
	r.inflight.Add(1)
	c.dispatched.Add(1)

	sh := r.shards[si]
	req := &ShardRequest{Shard: si, Opts: r.opts, Files: make([]ShardFile, len(sh.Jobs))}
	for k, ji := range sh.Jobs {
		j := r.jobs[ji]
		req.Files[k] = ShardFile{Pkg: j.Pkg, Path: j.Path, Lib: j.Lib, Data: j.Data}
	}

	start := time.Now()
	resp, corrupt, err := c.callWorker(w.url, req)
	latency := time.Since(start)
	r.inflight.Add(-1)

	w.mu.Lock()
	w.dispatched++
	w.latencySum += latency
	w.latencyCount++
	if err != nil {
		w.failures++
		w.consecFails++
		w.lastErr = err.Error()
		if w.consecFails >= c.cfg.FailureLimit && !w.evicted {
			w.evicted = true
			c.evictions.Add(1)
			c.cfg.Logf("fleet: evicting worker %s after %d consecutive failures (%v)",
				w.url, w.consecFails, err)
			if r.live.Add(-1) == 0 {
				r.deadOnce.Do(func() { close(r.dead) })
			}
		}
	} else {
		w.consecFails = 0
		w.lastErr = ""
	}
	w.mu.Unlock()

	if err != nil {
		c.failures.Add(1)
		if corrupt {
			c.corrupt.Add(1)
		}
		c.cfg.Logf("fleet: shard %d on %s failed: %v", si, w.url, err)
		r.mu.Lock()
		st.inflight--
		if st.claimed {
			r.mu.Unlock()
			return
		}
		st.failures++
		exhausted := st.failures > c.cfg.MaxRetries
		if exhausted && st.inflight > 0 {
			// A hedge is still outstanding; let it decide the shard.
			exhausted = false
		}
		if exhausted {
			st.local = true
			r.mu.Unlock()
			r.finishLocal(si)
			return
		}
		backoff := r.backoff(st.failures)
		r.mu.Unlock()
		c.retries.Add(1)
		time.AfterFunc(backoff, func() { r.push(si) })
		return
	}

	r.mu.Lock()
	st.inflight--
	if st.claimed {
		r.mu.Unlock()
		return
	}
	st.claimed = true
	for k, ji := range sh.Jobs {
		fr := &resp.Results[k]
		if fr.Err != "" {
			r.results[ji] = core.JobResult{Err: errors.New(fr.Err)}
			continue
		}
		r.results[ji] = core.JobResult{Summary: fr.Summary}
	}
	r.mu.Unlock()
	if r.remaining.Add(-1) == 0 {
		r.doneOnce.Do(func() { close(r.done) })
	}
}

// finishLocal marks a retry-exhausted shard as no longer the fleet's
// responsibility. It stays unclaimed so the post-run local batch picks it
// up, but the done accounting must not wait for a remote result that will
// never come.
func (r *run) finishLocal(si int) {
	r.c.cfg.Logf("fleet: shard %d exhausted retries; deferring to local analysis", si)
	if r.remaining.Add(-1) == 0 {
		r.doneOnce.Do(func() { close(r.done) })
	}
}

func (r *run) backoff(failures int) time.Duration {
	d := r.c.cfg.RetryBackoff
	for i := 1; i < failures && d < r.c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.c.cfg.MaxBackoff {
		d = r.c.cfg.MaxBackoff
	}
	// Full jitter keeps retried shards from stampeding one worker.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// waitReadmit sleeps through an eviction, probing /healthz every EvictFor
// until the worker answers or the run stops. Re-admission restores the
// worker to the dispatch pool.
func (r *run) waitReadmit(w *workerState) bool {
	for {
		t := time.NewTimer(r.c.cfg.EvictFor)
		select {
		case <-r.stop:
			t.Stop()
			return false
		case <-t.C:
		}
		if r.c.probe(w.url) {
			w.mu.Lock()
			w.evicted = false
			w.consecFails = 0
			w.mu.Unlock()
			r.c.readmissions.Add(1)
			r.live.Add(1)
			r.c.cfg.Logf("fleet: re-admitting worker %s", w.url)
			return true
		}
	}
}

// hedger watches for stragglers: a shard outstanding longer than
// HedgeAfter with idle capacity in the fleet is re-queued so another
// worker can race the slow one. First response wins; the loser's result
// is dropped by the claim check.
func (r *run) hedger() {
	interval := r.c.cfg.HedgeAfter / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		idle := r.live.Load() - r.inflight.Load()
		if idle <= 0 {
			continue
		}
		now := time.Now()
		r.mu.Lock()
		var hedged []int
		for si := range r.state {
			st := &r.state[si]
			if st.claimed || st.inflight == 0 || st.hedges >= len(r.c.workers)-1 {
				continue
			}
			if now.Sub(st.started) < r.c.cfg.HedgeAfter {
				continue
			}
			st.hedges++
			hedged = append(hedged, si)
			if idle--; idle <= 0 {
				break
			}
		}
		r.mu.Unlock()
		for _, si := range hedged {
			r.c.hedges.Add(1)
			r.c.cfg.Logf("fleet: hedging straggler shard %d", si)
			r.push(si)
		}
	}
}

// callWorker POSTs one shard to a worker and validates the response.
// corrupt reports whether the failure was a malformed or mismatched
// payload (as opposed to a transport or HTTP error).
func (c *Coordinator) callWorker(url string, req *ShardRequest) (_ *ShardResponse, corrupt bool, _ error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: encoding shard %d: %w", req.Shard, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.JobTimeout)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+AnalyzePath, bytes.NewReader(body))
	if err != nil {
		return nil, false, fmt.Errorf("fleet: shard %d request: %w", req.Shard, err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := c.cfg.Client.Do(httpReq)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: shard %d: %w", req.Shard, err)
	}
	defer func() {
		io.Copy(io.Discard, httpResp.Body)
		httpResp.Body.Close()
	}()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return nil, false, fmt.Errorf("fleet: shard %d: worker returned %s: %s",
			req.Shard, httpResp.Status, bytes.TrimSpace(msg))
	}
	resp, err := decodeResponse(httpResp.Body, req)
	if err != nil {
		return nil, true, err
	}
	return resp, false, nil
}

func (c *Coordinator) probe(url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// WorkerStats is one worker's slice of Stats.
type WorkerStats struct {
	URL          string  `json:"url"`
	Dispatched   uint64  `json:"dispatched"`
	Failures     uint64  `json:"failures"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	Evicted      bool    `json:"evicted"`
	LastErr      string  `json:"last_error,omitempty"`
}

// Stats is a point-in-time snapshot of the coordinator's counters,
// accumulated over every run since construction.
type Stats struct {
	Workers             []WorkerStats `json:"workers"`
	WorkersHealthy      int           `json:"workers_healthy"`
	ShardsTotal         uint64        `json:"shards_total"`
	Dispatched          uint64        `json:"jobs_dispatched"`
	Retries             uint64        `json:"jobs_retried"`
	Hedges              uint64        `json:"jobs_hedged"`
	Failures            uint64        `json:"jobs_failed"`
	CorruptResponses    uint64        `json:"corrupt_responses"`
	LocalFallbackShards uint64        `json:"local_fallback_shards"`
	Evictions           uint64        `json:"worker_evictions"`
	Readmissions        uint64        `json:"worker_readmissions"`
	ShardBytesMax       int64         `json:"shard_bytes_max"`
	ShardBytesMin       int64         `json:"shard_bytes_min"`
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		ShardsTotal:         c.shardsTotal.Load(),
		Dispatched:          c.dispatched.Load(),
		Retries:             c.retries.Load(),
		Hedges:              c.hedges.Load(),
		Failures:            c.failures.Load(),
		CorruptResponses:    c.corrupt.Load(),
		LocalFallbackShards: c.localFallback.Load(),
		Evictions:           c.evictions.Load(),
		Readmissions:        c.readmissions.Load(),
		ShardBytesMax:       c.lastBytesMax.Load(),
		ShardBytesMin:       c.lastBytesMin.Load(),
	}
	for _, w := range c.workers {
		w.mu.Lock()
		ws := WorkerStats{
			URL:        w.url,
			Dispatched: w.dispatched,
			Failures:   w.failures,
			Evicted:    w.evicted,
			LastErr:    w.lastErr,
		}
		if w.latencyCount > 0 {
			ws.AvgLatencyMs = float64(w.latencySum) / float64(time.Millisecond) / float64(w.latencyCount)
		}
		if !w.evicted {
			s.WorkersHealthy++
		}
		w.mu.Unlock()
		s.Workers = append(s.Workers, ws)
	}
	return s
}

// WriteMetrics writes the apiserved_fleet_* families. A nil coordinator
// (no fleet) writes only apiserved_fleet_enabled 0.
func (c *Coordinator) WriteMetrics(w *obs.Writer) {
	obs.Gauge(w, "apiserved_fleet_enabled", "Whether a distributed-analysis fleet is configured.", c != nil)
	if c == nil {
		return
	}
	fs := c.Stats()
	obs.Gauge(w, "apiserved_fleet_workers", "Workers configured.", len(fs.Workers))
	obs.Gauge(w, "apiserved_fleet_workers_healthy", "Workers not currently evicted.", fs.WorkersHealthy)
	obs.Counter(w, "apiserved_fleet_shards_total", "Shards partitioned across all fleet runs.", fs.ShardsTotal)
	obs.Counter(w, "apiserved_fleet_jobs_dispatched_total", "Shard dispatches sent to workers.", fs.Dispatched)
	obs.Counter(w, "apiserved_fleet_jobs_retried_total", "Failed shards re-queued after backoff.", fs.Retries)
	obs.Counter(w, "apiserved_fleet_jobs_hedged_total", "Slow shards re-dispatched to an idle worker.", fs.Hedges)
	obs.Counter(w, "apiserved_fleet_jobs_failed_total", "Shard dispatches that failed.", fs.Failures)
	obs.Counter(w, "apiserved_fleet_corrupt_responses_total", "Worker responses rejected as malformed.", fs.CorruptResponses)
	obs.Counter(w, "apiserved_fleet_local_fallback_shards_total", "Shards analyzed in-process instead of on a worker.", fs.LocalFallbackShards)
	obs.Counter(w, "apiserved_fleet_worker_evictions_total", "Workers evicted after consecutive failures.", fs.Evictions)
	obs.Counter(w, "apiserved_fleet_worker_readmissions_total", "Evicted workers re-admitted after a healthy probe.", fs.Readmissions)
	w.Family("apiserved_fleet_shard_bytes", obs.TypeGauge, "Shard size skew of the most recent partition.")
	obs.Sample(w, fs.ShardBytesMax, "bound", "max")
	obs.Sample(w, fs.ShardBytesMin, "bound", "min")
	w.Family("apiserved_fleet_worker_dispatched_total", obs.TypeCounter, "Shard dispatches per worker.")
	for _, ws := range fs.Workers {
		obs.Sample(w, ws.Dispatched, "worker", ws.URL)
	}
	w.Family("apiserved_fleet_worker_failures_total", obs.TypeCounter, "Failed shard dispatches per worker.")
	for _, ws := range fs.Workers {
		obs.Sample(w, ws.Failures, "worker", ws.URL)
	}
	w.Family("apiserved_fleet_worker_avg_latency_ms", obs.TypeGauge, "Mean shard dispatch latency per worker, in milliseconds.")
	for _, ws := range fs.Workers {
		obs.Sample(w, ws.AvgLatencyMs, "worker", ws.URL)
	}
	w.Family("apiserved_fleet_worker_evicted", obs.TypeGauge, "Whether each worker is currently evicted.")
	for _, ws := range fs.Workers {
		obs.Sample(w, ws.Evicted, "worker", ws.URL)
	}
}
