package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/service"
)

// Query phase shape. The reference windows measure latency at the
// workload's fixed arrival rate over three quarters of the phase; the
// max-rate search then walks the rate up to where the latency limit
// breaks, one window per rate.
const (
	refWindows = 6
	// searchSteps is about how many rates a search tries.
	searchSteps = 10
	// minStepRequests gives every search step at least ten samples
	// beyond its p99.
	minStepRequests = 1000
	// searchResolution is the search's final step: 5%, finer than any
	// bound a rate could be judged by, so quantization cannot read as a
	// regression.
	searchResolution = 0.05
	searchCeiling    = 1 << 17
	// bodyChecks is how many served bodies per window are compared with
	// the direct service answer.
	bodyChecks = 25
	// ladderRequests is how many requests the traced run replays at each
	// serving boundary.
	ladderRequests = 1500
	// hotSuggestK bounds k in hot suggest queries over greedy-path
	// prefixes, which keeps their key space small enough to warm in
	// set-up; churn suggest queries draw k from 1 to 8.
	hotSuggestK = 3
	maxUploads  = 32
	// swapInterval is how often the churn workload swaps a snapshot in
	// during the reference windows. A swap costs about 50 ms, so about one
	// request in eighty runs beside one: often enough that every run
	// swaps, rarely enough that the pacer is late for fewer than 1% of
	// sends (NOTES.md).
	swapInterval = 4 * time.Second
)

const (
	epImportance   = "importance"
	epFootprint    = "footprint"
	epPath         = "path"
	epCompleteness = "completeness"
	epSuggest      = "suggest"
	epAnalyze      = "analyze"
)

// mix is the endpoint mix both workloads draw from, as relative weights.
// The weights are those of the session model in the repository's own
// load generator (internal/loadgen DefaultMix: importance 27, footprint
// 22, completeness 20, suggest 13, analyze 10), copied here so a change
// to loadgen cannot move the benchmark; its trends and plan slices are
// left out. Path has no weight there: it takes the 4 that DefaultMix gives
// each of its other whole-study reads, an assumption no traffic record
// backs. Only query-churn sends analyze.
var mix = []struct {
	ep     string
	weight int
}{
	{epImportance, 27},
	{epFootprint, 22},
	{epPath, 4},
	{epCompleteness, 20},
	{epSuggest, 13},
	{epAnalyze, 10},
}

// request is one query in both of the forms the benchmark sends it: an
// HTTP request, and the arguments of the matching direct service call.
type request struct {
	seq          uint64
	ep           string
	method, path string
	body         []byte
	name         string   // syscall, package or upload name
	names        []string // completeness and suggest sets
	k, n         int
}

// profile is what request streams draw from.
type profile struct {
	// syscalls is the greedy path's order, most important first.
	syscalls []string
	all      []string
	pkgs     []string
	cumW     []int64 // cumulative popcon installs (+1) over pkgs
	uploads  []upload
}

type upload struct {
	name string
	data []byte
}

func newProfile(study *repro.Study, c *corpus.Corpus) *profile {
	p := &profile{}
	path := study.GreedyPath()
	for _, pt := range path {
		p.syscalls = append(p.syscalls, pt.API.Name)
	}
	for _, sc := range linuxapi.Syscalls {
		p.all = append(p.all, sc.Name)
	}
	names := c.Repo.Names()
	sort.Strings(names)
	var total int64
	var execs []upload
	for _, name := range names {
		total += c.Survey.Installs(name) + 1
		p.pkgs = append(p.pkgs, name)
		p.cumW = append(p.cumW, total)
		for _, f := range c.Repo.Get(name).Files {
			if class, _ := elfx.Classify(f.Data); class == elfx.ClassELFExec || class == elfx.ClassELFStatic {
				execs = append(execs, upload{name: name + f.Path, data: f.Data})
			}
		}
	}
	step := max(1, len(execs)/maxUploads)
	for i := 0; i < len(execs) && len(p.uploads) < maxUploads; i += step {
		p.uploads = append(p.uploads, execs[i])
	}
	return p
}

// stream is a workload's deterministic, unbounded request sequence.
type stream struct {
	p     *profile
	rng   *rand.Rand
	churn bool
	seq   uint64
}

func newStream(seed int64, churn bool, p *profile) *stream {
	return &stream{p: p, rng: rand.New(rand.NewSource(seed)), churn: churn}
}

// take returns the next n requests.
func (s *stream) take(n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = s.next()
		s.seq++
		out[i].seq = s.seq
	}
	return out
}

// next draws one request from mix with the keys a compat-layer
// developer's tools send: rank-weighted syscalls, popcon-weighted
// packages, mostly the full greedy path, and greedy-path prefixes as the
// supported sets of completeness and suggest queries. Every hot key is in
// keySpace, so after warm-up nearly every answer is a hotset or
// byte-cache hit. The churn stream sends completeness and suggest queries
// over seeded random syscall subsets instead, so almost every key is new,
// and adds uploads analyzed on the request path.
func (s *stream) next() *request {
	sends := func(ep string) bool { return ep != epAnalyze || s.churn }
	total := 0
	for _, m := range mix {
		if sends(m.ep) {
			total += m.weight
		}
	}
	x := s.rng.Intn(total)
	var ep string
	for _, m := range mix {
		if !sends(m.ep) {
			continue
		}
		if x < m.weight {
			ep = m.ep
			break
		}
		x -= m.weight
	}
	switch ep {
	case epImportance:
		return importanceReq(s.pickSyscall())
	case epFootprint:
		return footprintReq(s.pickPackage())
	case epPath:
		n := 0
		if s.rng.Intn(4) == 0 {
			n = 1 + s.rng.Intn(40)
		}
		return pathReq(n)
	case epCompleteness:
		if s.churn {
			return completenessReq(s.randomSet())
		}
		return completenessReq(s.prefix())
	case epSuggest:
		if s.churn {
			return suggestReq(s.randomSet(), 1+s.rng.Intn(8))
		}
		return suggestReq(s.prefix(), 1+s.rng.Intn(hotSuggestK))
	}
	return analyzeReq(s.p.uploads[s.rng.Intn(len(s.p.uploads))])
}

// keySpace lists every hot request whose answer is not precomputed in
// the hotset, for warm-up.
func (s *stream) keySpace() []*request {
	var out []*request
	for _, pkg := range s.p.pkgs {
		out = append(out, footprintReq(pkg))
	}
	for n := 1; n <= 40; n++ {
		out = append(out, pathReq(n))
	}
	for k := 1; k <= len(s.p.syscalls); k++ {
		out = append(out, completenessReq(s.p.syscalls[:k]))
		for j := 1; j <= hotSuggestK; j++ {
			out = append(out, suggestReq(s.p.syscalls[:k], j))
		}
	}
	return out
}

func (s *stream) pickPackage() string {
	t := s.rng.Int63n(s.p.cumW[len(s.p.cumW)-1])
	return s.p.pkgs[sort.Search(len(s.p.cumW), func(i int) bool { return s.p.cumW[i] > t })]
}

// pickSyscall draws with weight 1/(rank+1) over the greedy order.
func (s *stream) pickSyscall() string {
	for {
		r := s.rng.Intn(len(s.p.syscalls))
		if s.rng.Float64() < 1/float64(r+1) {
			return s.p.syscalls[r]
		}
	}
}

func (s *stream) prefix() []string {
	return s.p.syscalls[:1+s.rng.Intn(len(s.p.syscalls))]
}

func (s *stream) randomSet() []string {
	perm := s.rng.Perm(len(s.p.all))[:8+s.rng.Intn(41)]
	out := make([]string, len(perm))
	for i, j := range perm {
		out[i] = s.p.all[j]
	}
	return out
}

func importanceReq(name string) *request {
	return &request{ep: epImportance, method: "GET", path: "/v1/importance/" + url.PathEscape(name), name: name}
}

func footprintReq(pkg string) *request {
	return &request{ep: epFootprint, method: "GET", path: "/v1/footprint/" + url.PathEscape(pkg), name: pkg}
}

func pathReq(n int) *request {
	p := "/v1/path"
	if n > 0 {
		p += "?n=" + strconv.Itoa(n)
	}
	return &request{ep: epPath, method: "GET", path: p, n: n}
}

func completenessReq(names []string) *request {
	body, _ := json.Marshal(map[string][]string{"syscalls": names}) // a []string always encodes
	return &request{ep: epCompleteness, method: "POST", path: "/v1/completeness", body: body, names: names}
}

func suggestReq(names []string, k int) *request {
	body, _ := json.Marshal(map[string]any{"supported": names, "k": k}) // strings and an int always encode
	return &request{ep: epSuggest, method: "POST", path: "/v1/suggest", body: body, names: names, k: k}
}

func analyzeReq(u upload) *request {
	return &request{ep: epAnalyze, method: "POST", path: "/v1/analyze?name=" + url.QueryEscape(u.name), body: u.data, name: u.name}
}

// direct answers r through the service's byte path, the same call the
// handler makes.
func (e *env) direct(r *request) (int, []byte, error) {
	var enc service.Encoded
	var err error
	switch r.ep {
	case epImportance:
		enc, err = e.svc.ImportanceBytes(-1, r.name)
	case epFootprint:
		enc, err = e.svc.FootprintBytes(-1, r.name)
	case epPath:
		enc, err = e.svc.PathBytes(-1, r.n)
	case epCompleteness:
		enc, err = e.svc.CompletenessBytes(-1, r.names)
	case epSuggest:
		enc, err = e.svc.SuggestBytes(-1, r.names, r.k)
	case epAnalyze:
		res, err := e.svc.Analyze(context.Background(), r.name, r.body)
		if err != nil {
			return 0, nil, err
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return 0, nil, err
		}
		return http.StatusOK, buf.Bytes(), nil
	default:
		return 0, nil, fmt.Errorf("unknown endpoint %q", r.ep)
	}
	return enc.Status, enc.Body, err
}

func (r *request) bodyReader() io.Reader {
	if r.body == nil {
		return nil
	}
	return bytes.NewReader(r.body)
}

// handle answers r through the HTTP handler in process, without a socket.
func (e *env) handle(r *request) (int, []byte) {
	rec := httptest.NewRecorder()
	e.api.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, r.bodyReader()))
	return rec.Code, rec.Body.Bytes()
}

// roundTrip sends r to the server over loopback.
func (e *env) roundTrip(r *request) (int, []byte, error) {
	req, err := http.NewRequest(r.method, e.base+r.path, r.bodyReader())
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// drive runs one open-loop segment over loopback. Every request counts
// as an attempted operation; a transport error or a status other than
// 200 fails it.
func (b *bench) drive(e *env, tr *tracer, rate float64, precise bool, reqs []*request) loopResult {
	res := openLoop(rate, len(reqs), precise, func(i int) error {
		h := tr.begin(reqs[i].seq, "net.request", -1)
		code, _, err := e.roundTrip(reqs[i])
		tr.end(h)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status %d", code)
		}
		return err
	})
	b.attempted += len(reqs)
	b.failed += res.Failures
	if res.Failures > 0 && len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf("%d of %d requests at %.0f req/s failed", res.Failures, len(reqs), rate))
	}
	return res
}

// queryPhase measures the served query path: latency at the workload's
// reference rate over several windows, sampled body checks, and (in
// untraced runs) the highest arrival rate that meets the latency limit.
// In the churn workload snapshot swaps run beside the reference windows
// on a fixed schedule, so the body checks wait until the swaps stop.
func (b *bench) queryPhase(e *env, budget time.Duration) error {
	before := e.svc.Stats()
	refBudget := budget * 3 / 4
	n := max(1, int(b.wl.refRate*(refBudget/refWindows).Seconds()))
	var p50s, p99s, lateP99s []float64
	var lat, late []time.Duration
	var windows [][]*request
	var outMax, behind int
	stop := make(chan struct{})
	swapped := make(chan swapResult, 1)
	if b.wl.churn {
		go func() { swapped <- e.swapEvery(swapInterval, stop) }()
	}
	for w := 0; w < refWindows; w++ {
		reqs := e.stream.take(n)
		windows = append(windows, reqs)
		// The load generator shares the server's heap; collecting before
		// each window keeps its garbage from timing the server's pauses.
		runtime.GC()
		res := b.drive(e, b.repTracer(w), b.wl.refRate, true, reqs)
		p50s = append(p50s, millis(percentile(res.Latency, p50)))
		p99s = append(p99s, millis(percentile(res.Latency, p99)))
		if b.repTracer(w) == nil {
			lat = append(lat, res.Latency...)
			late = append(late, res.Late...)
			lateP99s = append(lateP99s, micros(percentile(res.Late, p99)))
		}
		outMax = max(outMax, res.OutstandingMax)
		behind += res.Behind
	}
	close(stop)
	var swaps []time.Duration
	if b.wl.churn {
		sr := <-swapped
		b.check(sr.err == nil, "snapshot swap failed: %v", sr.err)
		swaps = sr.times
	}
	after := e.svc.Stats()
	b.serviceDeltas(before, after)
	for _, reqs := range windows {
		b.checkBodies(e, reqs)
	}

	sortDurations(lat)
	sortDurations(late)
	// Each percentile is the median over the untraced windows, so one
	// window hit by a host scheduling stall does not set the run's tail.
	b.record("query_p50_ms", p50s)
	b.record("query_p99_ms", p99s)
	b.note("query_p99_ms = %.4f ms, the median of the windows' p99 (printed, not gated)", b.e2e["query_p99_ms"])
	tail := tailPercentile(len(lat))
	b.note("query: %d samples at %.0f req/s in %d windows; pooled p50 %.4f ms, p99 %.4f ms; %s = %.4f ms is the highest percentile with >= 10 samples beyond it",
		len(lat), b.wl.refRate, refWindows, millis(percentile(lat, p50)), millis(percentile(lat, p99)),
		pctName(tail), millis(percentile(lat, tail)))
	b.note("query windows: p50 %.4f ms, p99 %.4f ms", p50s, p99s)
	lateP50, lateP90, lateP99 := percentile(late, p50), percentile(late, p90), percentile(late, p99)
	b.layer["driver.late_p99_us"] = micros(lateP99)
	b.layer["driver.outstanding_max"] = float64(outMax)
	b.note("driver.late_p99_us = %.2f us over %d on-time dispatches (p50 %.2f us, p90 %.2f us; windows' p99 %.2f us), %d behind schedule, outstanding max %d",
		micros(lateP99), len(late), micros(lateP50), micros(lateP90), lateP99s, behind, outMax)
	// A request sent late is timed from its due time, so its lateness is
	// in its latency, near the same percentile. When the median send is
	// late, the gated median is the generator's, not the server's, and the
	// run is invalid. When only the tail is late, most often because the
	// host stalled the whole process now and then (NOTES.md), the latency
	// tail carries those delays, so it is flagged, but the median stands.
	p50v := time.Duration(b.e2e["query_p50_ms"] * float64(time.Millisecond))
	b.check(2*lateP50 < p50v, "run invalid: pacer lateness p50 %v is not small next to query p50 %v", lateP50, p50v)
	if 2*lateP99 >= p50v {
		b.note("TAIL INVALID: pacer lateness p99 %v is not small next to query p50 %v, so query_p99_ms holds the load generator's delays", lateP99, p50v)
	}
	if len(swaps) > 0 {
		b.note("snapshot swaps during reference windows: %d, median %.2f ms", len(swaps), millis(medianDur(swaps)))
	}

	if b.tr != nil {
		return nil // the search is not traced
	}
	// One window per rate. The pacer is coarse here: its timer slack is
	// small next to the latency limit, and a spinning pacer would take a
	// processor from the server.
	window := max(100*time.Millisecond, (budget-refBudget)/searchSteps)
	var rates []float64
	rate := searchMaxRate(b.wl.searchStart, searchCeiling, searchResolution, func(rate float64) bool {
		runtime.GC()
		rates = append(rates, rate)
		reqs := e.stream.take(max(minStepRequests, int(rate*window.Seconds())))
		res := b.drive(e, nil, rate, false, reqs)
		return res.Failures == 0 && percentile(res.Latency, p99) <= b.wl.limit && res.FinalLag <= b.wl.limit
	})
	b.note("query_max_rps = %.0f req/s (printed, not gated); the search (p99 limit %v) tried %.0f req/s", rate, b.wl.limit, rates)
	return nil
}

type swapResult struct {
	times []time.Duration
	err   error
}

// swapEvery swaps the snapshot file in every interval until stop is
// closed, and returns how long each swap took.
func (e *env) swapEvery(interval time.Duration, stop <-chan struct{}) swapResult {
	t := time.NewTicker(interval)
	defer t.Stop()
	var r swapResult
	for {
		select {
		case <-stop:
			return r
		case <-t.C:
		}
		start := time.Now()
		if _, r.err = e.svc.LoadSnapshotFile(e.snapFile); r.err != nil {
			return r
		}
		r.times = append(r.times, time.Since(start))
	}
}

// checkBodies replays a sample of a window's requests once its load has
// stopped: two direct service calls (the first may be the miss that
// fills the cache), then the in-process handler and loopback, whose
// bytes must both equal the second direct answer for the same query and
// generation.
func (b *bench) checkBodies(e *env, reqs []*request) {
	step := max(1, len(reqs)/bodyChecks)
	for i := 0; i < len(reqs); i += step {
		r := reqs[i]
		_, _, err := e.direct(r)
		wantCode, want, err2 := e.direct(r)
		hCode, handled := e.handle(r)
		code, got, err3 := e.roundTrip(r)
		b.check(err == nil && err2 == nil && err3 == nil && wantCode == http.StatusOK &&
			hCode == wantCode && code == wantCode && bytes.Equal(handled, want) && bytes.Equal(got, want),
			"%s %s: served body differs from the direct service answer", r.method, r.path)
	}
}

// serviceDeltas turns the service's counters over the reference windows
// into per-layer ratios and counts.
func (b *bench) serviceDeltas(before, after service.Stats) {
	hot := after.HotsetHits - before.HotsetHits
	hits := after.ByteCacheHits - before.ByteCacheHits
	misses := after.ByteCacheMisses - before.ByteCacheMisses
	b.layer["service.hotset_hit_ratio"] = float64(hot) / float64(max(hot+hits+misses, 1))
	b.layer["service.bytecache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	b.layer["service.bytecache_evictions"] = float64(after.ByteCacheEvictions - before.ByteCacheEvictions)
	b.layer["service.singleflight_shared"] = float64(after.SingleflightShared - before.SingleflightShared)
}

// queryLayers replays one stretch of the request stream at three serving
// boundaries, one request at a time: the direct service call, the HTTP
// handler in process, and loopback HTTP. The three spans of request i
// share id i. Each boundary's cost is its median minus the one inside
// it. In the churn workload a snapshot swap before each pass empties the
// caches, so every pass meets the same misses. Then it times the
// completeness metric, upload analysis and snapshot swaps directly.
func (b *bench) queryLayers(e *env) error {
	tr := b.tr
	reqs := e.stream.take(ladderRequests)
	names := []string{"service.lookup", "httpapi.handler", "net.loopback"}
	var med [3]time.Duration
	for k, name := range names {
		if b.wl.churn {
			if _, err := e.svc.LoadSnapshotFile(e.snapFile); err != nil {
				return err
			}
		}
		ds := make([]time.Duration, 0, len(reqs))
		for _, r := range reqs {
			var code int
			var err error
			h := tr.begin(r.seq, name, -1)
			switch k {
			case 0:
				code, _, err = e.direct(r)
			case 1:
				code, _ = e.handle(r)
			default:
				code, _, err = e.roundTrip(r)
			}
			ds = append(ds, tr.end(h))
			b.check(err == nil && code == http.StatusOK, "%s %s at %s: status %d, error %v", r.method, r.path, name, code, err)
		}
		med[k] = medianDur(ds)
	}
	b.layer["service.lookup_us"] = micros(med[0])
	b.layer["httpapi.handler_us"] = micros(med[1] - med[0])
	b.layer["net.loopback_us"] = micros(med[2] - med[1])

	in := e.svc.Snapshot().Study.Core().Input
	opts := metrics.CompletenessOptions{Kind: linuxapi.KindSyscall}
	var comp []time.Duration
	for _, r := range reqs {
		if r.ep != epCompleteness {
			continue
		}
		h := tr.begin(r.seq, "metrics.completeness", -1)
		metrics.WeightedCompleteness(in, core.SupportedSyscallSet(r.names), opts)
		comp = append(comp, tr.end(h))
	}
	b.layer["metrics.completeness_us"] = micros(medianDur(comp))

	var analyze []time.Duration
	for i, u := range e.stream.p.uploads {
		h := tr.begin(uint64(i), "service.analyze", -1)
		_, err := e.svc.Analyze(context.Background(), u.name, u.data)
		analyze = append(analyze, tr.end(h))
		b.check(err == nil, "analyzing %s: %v", u.name, err)
	}
	b.layer["service.analyze_ms"] = millis(medianDur(analyze))

	var swaps []time.Duration
	for i := 0; i < 5; i++ {
		h := tr.begin(uint64(i), "service.swap", -1)
		_, err := e.svc.LoadSnapshotFile(e.snapFile)
		swaps = append(swaps, tr.end(h))
		if err != nil {
			return err
		}
	}
	b.layer["service.swap_ms"] = millis(medianDur(swaps))
	return nil
}
