package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
)

func TestHistExactSmallValues(t *testing.T) {
	var h Hist
	for v := time.Duration(0); v < histSubCnt; v++ {
		h.Record(v)
	}
	if h.Count() != histSubCnt {
		t.Fatalf("count = %d", h.Count())
	}
	// Small values are stored exactly: the median of 0..63 is 31-32.
	if q := h.Quantile(0.5); q < 31 || q > 32 {
		t.Errorf("p50 of 0..63 = %d", q)
	}
	if h.Max() != histSubCnt-1 {
		t.Errorf("max = %d", h.Max())
	}
}

// TestHistQuantileAccuracy checks the HDR property: quantiles are
// within ~1.6% relative error of the true order statistic, across
// magnitudes from microseconds to seconds.
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Hist
	var vals []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over [1µs, 5s] — five decades.
		v := time.Duration(float64(time.Microsecond) * pow10(rng.Float64()*6.7))
		h.Record(v)
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		idx := int(q*float64(len(vals))+0.5) - 1
		truth := vals[idx]
		got := float64(h.Quantile(q))
		if rel := abs(got-truth) / truth; rel > 0.02 {
			t.Errorf("q=%v: got %v truth %v (rel err %.3f)", q, got, truth, rel)
		}
	}
}

func pow10(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 10
		x--
	}
	// linear interpolation is plenty for test input spread
	return r * (1 + 9*x/10*1.0) // in [r, 10r)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestHistMerge(t *testing.T) {
	var a, b, whole Hist
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10_000; i++ {
		v := time.Duration(rng.Intn(1_000_000))
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Max() != whole.Max() || a.Mean() != whole.Mean() {
		t.Fatalf("merge: count %d/%d max %v/%v mean %v/%v",
			a.Count(), whole.Count(), a.Max(), whole.Max(), a.Mean(), whole.Mean())
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q=%v: merged %v whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}

func testProfile(t *testing.T) *Profile {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Packages: 40, Installations: 100000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromCorpus(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGeneratorDeterministicAndMixed(t *testing.T) {
	p := testProfile(t)
	if p.ELF == nil {
		t.Fatal("profile found no ELF sample")
	}
	g1, err := NewGenerator(p, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(p, nil, 5)
	seen := map[string]int{}
	for i := 0; i < 2000; i++ {
		r1, r2 := g1.Next(), g2.Next()
		if r1.Endpoint != r2.Endpoint || r1.Path != r2.Path || string(r1.Body) != string(r2.Body) {
			t.Fatalf("generators diverged at %d: %q vs %q", i, r1.Path, r2.Path)
		}
		seen[r1.Endpoint]++
	}
	// Every endpoint of the default mix appears, roughly in proportion.
	for _, ep := range []string{EpImportance, EpCompleteness, EpSuggest, EpFootprint, EpAnalyze, EpTrends} {
		if seen[ep] == 0 {
			t.Errorf("endpoint %s never generated (mix %v)", ep, seen)
		}
	}
	if seen[EpImportance] < seen[EpAnalyze] {
		t.Errorf("mix weights ignored: %v", seen)
	}
}

// TestGeneratorZipfWeighting checks that package weights shape the
// stream: a package holding 90% of the installation mass must draw
// ~90% of the footprint requests, not a uniform 25%.
func TestGeneratorZipfWeighting(t *testing.T) {
	p := &Profile{
		Packages: []string{"head", "mid", "tail-a", "tail-b"},
		Weights:  []int64{90, 8, 1, 1},
		Syscalls: []string{"read", "write", "open"},
	}
	g, err := NewGenerator(p, Mix{EpFootprint: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	hits := map[string]int{}
	for i := 0; i < n; i++ {
		hits[g.Next().Path]++
	}
	got := float64(hits["/v1/footprint/head"]) / n
	if got < 0.85 || got > 0.95 {
		t.Errorf("head package drawn %.3f of the time, want ~0.90", got)
	}
	if hits["/v1/footprint/tail-a"] == 0 {
		t.Error("tail package starved entirely")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("importance=3, footprint=1,analyze=0,trends=2")
	if err != nil {
		t.Fatal(err)
	}
	if m[EpImportance] != 3 || m[EpFootprint] != 1 || m[EpAnalyze] != 0 || m[EpTrends] != 2 {
		t.Errorf("mix = %v", m)
	}
	for _, bad := range []string{"bogus=1", "importance", "importance=-1", "importance=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// TestTrendsEndpointRotates checks the trends slice stays on the three
// /v1/trends/* surfaces and visits all of them.
func TestTrendsEndpointRotates(t *testing.T) {
	p := testProfile(t)
	g, err := NewGenerator(p, Mix{EpTrends: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		r := g.Next()
		if r.Endpoint != EpTrends || r.Method != "GET" || !strings.HasPrefix(r.Path, "/v1/trends/") {
			t.Fatalf("trends request = %+v", r)
		}
		surface := strings.TrimPrefix(r.Path, "/v1/trends/")
		if i := strings.IndexByte(surface, '?'); i >= 0 {
			surface = surface[:i]
		}
		seen[surface]++
	}
	for _, want := range []string{"importance", "completeness", "path"} {
		if seen[want] == 0 {
			t.Errorf("trend surface %s never generated: %v", want, seen)
		}
	}
}

// stubServer responds 200 to every endpoint with an optional delay.
func stubServer(delay time.Duration) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if delay > 0 {
			time.Sleep(delay)
		}
		w.Write([]byte(`{}`))
	}))
}

// TestJobsEndpointFollowsToTerminal drives the jobs mix against a stub
// job tier that needs two status polls before finishing: every
// observation must be the full submit→done round trip mapped to 200,
// and a dead job must surface as a 5xx.
func TestJobsEndpointFollowsToTerminal(t *testing.T) {
	p := testProfile(t)
	var submits, polls atomic.Int64
	pollsByJob := map[string]int{}
	var mu sync.Mutex
	fail := false
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs/analyze-upload", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		n := submits.Add(1)
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":"j-%d","state":"queued"}`, n)
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		id := r.PathValue("id")
		mu.Lock()
		pollsByJob[id]++
		n := pollsByJob[id]
		mu.Unlock()
		state := "running"
		if n >= 2 {
			state = "done"
			if fail {
				state = "dead"
			}
		}
		fmt.Fprintf(w, `{"id":%q,"state":%q}`, id, state)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	rep, err := Run(context.Background(), p, Options{
		BaseURL:  ts.URL,
		Mode:     ModeClosed,
		Workers:  2,
		Duration: 200 * time.Millisecond,
		Mix:      Mix{EpJobs: 1},
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Requests == 0 {
		t.Fatal("no job round trips measured")
	}
	if rep.Overall.Codes["200"] != rep.Overall.Requests || rep.HTTP5xx != 0 {
		t.Errorf("codes = %v over %d requests", rep.Overall.Codes, rep.Overall.Requests)
	}
	if polls.Load() < 2*submits.Load() {
		t.Errorf("jobs not followed: %d submits, %d polls", submits.Load(), polls.Load())
	}

	// A job that dies must count as a server error, not a success.
	mu.Lock()
	fail = true
	pollsByJob = map[string]int{}
	mu.Unlock()
	rep, err = Run(context.Background(), p, Options{
		BaseURL:  ts.URL,
		Mode:     ModeClosed,
		Workers:  1,
		Duration: 100 * time.Millisecond,
		Mix:      Mix{EpJobs: 1},
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HTTP5xx == 0 || rep.HTTP5xx != rep.Overall.Requests {
		t.Errorf("dead jobs reported as %v, want all 5xx", rep.Overall.Codes)
	}
}

func TestClosedLoopDriver(t *testing.T) {
	p := testProfile(t)
	ts := stubServer(0)
	defer ts.Close()
	rep, err := Run(context.Background(), p, Options{
		BaseURL:  ts.URL,
		Mode:     ModeClosed,
		Workers:  4,
		Duration: 300 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Requests == 0 {
		t.Fatal("no requests measured")
	}
	if rep.WarmupRequests == 0 {
		t.Error("warmup requests not separated")
	}
	if rep.HTTP5xx != 0 || rep.Overall.Errors != 0 {
		t.Errorf("errors against stub: %+v", rep.Overall)
	}
	if rep.Overall.Codes["200"] != rep.Overall.Requests {
		t.Errorf("codes = %v, requests = %d", rep.Overall.Codes, rep.Overall.Requests)
	}
	if len(rep.Endpoints) == 0 || rep.Mode != ModeClosed || rep.Workers != 4 {
		t.Errorf("report shape: %+v", rep)
	}
	var sum uint64
	for _, ep := range rep.Endpoints {
		sum += ep.Requests
	}
	if sum != rep.Overall.Requests {
		t.Errorf("per-endpoint sum %d != overall %d", sum, rep.Overall.Requests)
	}
}

func TestOpenLoopDriverRate(t *testing.T) {
	p := testProfile(t)
	ts := stubServer(0)
	defer ts.Close()
	rep, err := Run(context.Background(), p, Options{
		BaseURL:  ts.URL,
		Mode:     ModeOpen,
		RPS:      200,
		Duration: 500 * time.Millisecond,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~100 arrivals in 500ms at 200/s; allow generous scheduler slack.
	if rep.Overall.Requests < 60 || rep.Overall.Requests > 140 {
		t.Errorf("open-loop arrivals = %d, want ~100", rep.Overall.Requests)
	}
	if rep.TargetRPS != 200 {
		t.Errorf("target RPS = %v", rep.TargetRPS)
	}
}

// TestOpenLoopCoordinatedOmissionSafety is the property the open-loop
// driver exists for: against a server that takes 100ms per response
// with 1 outstanding request allowed, a closed-loop client would
// happily report 100ms latencies at 10 RPS — but at 50 scheduled
// arrivals/s, 4 of every 5 requests queue behind the stall, and their
// measured latency must include that wait.
func TestOpenLoopCoordinatedOmissionSafety(t *testing.T) {
	p := testProfile(t)
	const serverDelay = 50 * time.Millisecond
	ts := stubServer(serverDelay)
	defer ts.Close()
	rep, err := Run(context.Background(), p, Options{
		BaseURL:        ts.URL,
		Mode:           ModeOpen,
		RPS:            100,
		OutstandingMax: 1, // serialize: server capacity 20/s vs 100/s offered
		Duration:       600 * time.Millisecond,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The backlog grows ~linearly; the p99 arrival waited most of the
	// run, far beyond one service time. A CO-blind driver would report
	// ~serverDelay here.
	if p99 := rep.Overall.P99Ms; p99 < 4*float64(serverDelay/time.Millisecond) {
		t.Errorf("p99 = %.1fms does not include queue delay (service time %v)", p99, serverDelay)
	}
}

func TestRampFindsCliff(t *testing.T) {
	p := testProfile(t)
	// Server sheds above a rate: count in-flight via a semaphore of 1
	// and 20ms service time → capacity ~50 RPS.
	sem := make(chan struct{}, 2)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case sem <- struct{}{}:
			time.Sleep(20 * time.Millisecond)
			<-sem
			w.Write([]byte(`{}`))
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer ts.Close()
	ramp, err := Ramp(context.Background(), p, Options{
		BaseURL:  ts.URL,
		Duration: 300 * time.Millisecond,
		Seed:     1,
	}, 20, 200, 420, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ramp.Stages) == 0 {
		t.Fatal("no stages")
	}
	last := ramp.Stages[len(ramp.Stages)-1]
	if last.Pass {
		t.Skip("machine fast enough that the cliff never failed; nothing to assert")
	}
	if ramp.MaxPassingRPS >= last.RPS {
		t.Errorf("max passing %v >= failing stage %v", ramp.MaxPassingRPS, last.RPS)
	}
	if last.Report.HTTP5xx == 0 && last.Report.Overall.P99Ms <= ramp.SLOP99Ms {
		t.Errorf("failing stage has no failure signal: %+v", last.Report.Overall)
	}
}

// TestPathEndpointGeneration checks the path mix entry parses and the
// generator stays on /v1/path, mostly the full-path form the server
// precomputes, with a minority of ?n= prefix queries.
func TestPathEndpointGeneration(t *testing.T) {
	if m, err := ParseMix("path=3"); err != nil || m[EpPath] != 3 {
		t.Fatalf("ParseMix(path=3) = %v, %v", m, err)
	}
	p := testProfile(t)
	g, err := NewGenerator(p, Mix{EpPath: 1}, 17)
	if err != nil {
		t.Fatal(err)
	}
	full, prefixed := 0, 0
	for i := 0; i < 400; i++ {
		r := g.Next()
		if r.Endpoint != EpPath || r.Method != "GET" {
			t.Fatalf("path request = %+v", r)
		}
		switch {
		case r.Path == "/v1/path":
			full++
		case strings.HasPrefix(r.Path, "/v1/path?n="):
			prefixed++
		default:
			t.Fatalf("unexpected path request %q", r.Path)
		}
	}
	if full <= prefixed || prefixed == 0 {
		t.Errorf("full/prefixed = %d/%d, want full-path majority with some prefixes", full, prefixed)
	}
}

// TestHandlerTransport drives the closed loop straight into an
// http.Handler — no listener, no sockets — and checks the responses
// are observed exactly like wire responses.
func TestHandlerTransport(t *testing.T) {
	p := testProfile(t)
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if strings.HasPrefix(r.URL.Path, "/v1/footprint/") {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"nope"}`))
			return
		}
		w.Write([]byte(`{}`))
	})
	rep, err := Run(context.Background(), p, Options{
		Handler:  mux,
		Mode:     ModeClosed,
		Workers:  2,
		Duration: 150 * time.Millisecond,
		Mix:      Mix{EpImportance: 3, EpFootprint: 1},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overall.Requests == 0 || hits.Load() == 0 {
		t.Fatal("no requests reached the handler")
	}
	if rep.Overall.Errors != 0 || rep.HTTP5xx != 0 {
		t.Errorf("in-process transport errors: %+v", rep.Overall)
	}
	if rep.Overall.Codes["200"] == 0 || rep.Overall.Codes["404"] == 0 {
		t.Errorf("codes = %v, want both 200s and 404s observed", rep.Overall.Codes)
	}
}

// TestCeiling steps a fast in-process handler through a worker ladder
// and checks the report shape, and that an always-5xx handler never
// passes a stage.
func TestCeiling(t *testing.T) {
	p := testProfile(t)
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	})
	rep, err := Ceiling(context.Background(), p, Options{
		Handler:  ok,
		Duration: 100 * time.Millisecond,
		Mix:      Mix{EpImportance: 1},
		Seed:     2,
	}, []int{1, 2}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(rep.Stages))
	}
	if rep.MaxRPSUnderSLO <= 0 || rep.BestWorkers == 0 {
		t.Errorf("ceiling = %+v, want a positive passing rate", rep)
	}
	for _, st := range rep.Stages {
		if !st.Pass || st.RPS <= 0 || st.Report == nil {
			t.Errorf("stage %+v, want passing with a report", st)
		}
	}

	// A handler that always 5xxes can never pass a stage.
	bad := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	failed, err := Ceiling(context.Background(), p, Options{
		Handler:  bad,
		Duration: 50 * time.Millisecond,
		Mix:      Mix{EpImportance: 1},
		Seed:     2,
	}, []int{1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if failed.MaxRPSUnderSLO != 0 || failed.BestWorkers != 0 {
		t.Errorf("all-5xx ceiling = %+v, want no passing rate", failed)
	}

	if _, err := Ceiling(context.Background(), p, Options{Handler: ok}, nil, 1000); err == nil {
		t.Error("empty worker ladder accepted")
	}
	if _, err := Ceiling(context.Background(), p, Options{Handler: ok}, []int{0}, 1000); err == nil {
		t.Error("zero worker count accepted")
	}
}
