package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/obs"
)

func fleetTestCorpus(t *testing.T) *corpus.Corpus {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{
		Packages: 60, Installations: 100000, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameStudy asserts two studies are indistinguishable: identical
// per-package footprints and identical pipeline statistics — the fleet's
// correctness contract.
func sameStudy(t *testing.T, want, got *core.Study) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("stats diverge:\nwant %+v\ngot  %+v", want.Stats, got.Stats)
	}
	if len(want.Input.Footprints) != len(got.Input.Footprints) {
		t.Fatalf("footprint count %d != %d",
			len(got.Input.Footprints), len(want.Input.Footprints))
	}
	for name, w := range want.Input.Footprints {
		g := got.Input.Footprints[name]
		if g == nil {
			t.Fatalf("%s: footprint missing from fleet run", name)
		}
		if w.Count() != g.Count() {
			t.Fatalf("%s: footprint size %d != %d", name, g.Count(), w.Count())
		}
		for _, api := range w.SortedAPIs() {
			if !g.Contains(api) {
				t.Errorf("%s: %v lost by the fleet run", name, api)
			}
		}
	}
}

func startWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewWorker(WorkerConfig{}))
	t.Cleanup(srv.Close)
	return srv
}

// testConfig returns fleet timings tightened for tests: fast retries, no
// minutes-long timeouts.
func testConfig(workers ...string) Config {
	return Config{
		Workers:      workers,
		Shards:       6,
		JobTimeout:   30 * time.Second,
		MaxRetries:   3,
		RetryBackoff: 5 * time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		HedgeAfter:   10 * time.Second,
		FailureLimit: 3,
		EvictFor:     10 * time.Millisecond,
	}
}

func TestFleetMatchesLocal(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := startWorker(t), startWorker(t)
	coord := New(testConfig(w1.URL, w2.URL))
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)

	st := coord.Stats()
	if st.ShardsTotal == 0 || st.Dispatched < st.ShardsTotal {
		t.Errorf("stats = %+v, want every shard dispatched", st)
	}
	if st.LocalFallbackShards != 0 {
		t.Errorf("healthy fleet fell back locally for %d shards", st.LocalFallbackShards)
	}
	if st.ShardBytesMax == 0 || st.ShardBytesMin == 0 {
		t.Errorf("shard skew not recorded: %+v", st)
	}
	var served uint64
	for _, ws := range st.Workers {
		served += ws.Dispatched
	}
	if served != st.Dispatched {
		t.Errorf("per-worker dispatches %d != total %d", served, st.Dispatched)
	}
}

// TestFleetWorkerKilledMidRun kills one of two workers after its first
// shard: the coordinator must retry its outstanding work on the survivor
// and still produce an identical study.
func TestFleetWorkerKilledMidRun(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	good := startWorker(t)
	real := NewWorker(WorkerConfig{})
	var served atomic.Int64
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) > 1 {
			// The process is gone: drop the connection without a response.
			hj, ok := w.(http.Hijacker)
			if ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			http.Error(w, "killed", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)

	cfg := testConfig(good.URL, dying.URL)
	cfg.FailureLimit = 2
	coord := New(cfg)
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)
	st := coord.Stats()
	if st.Failures == 0 {
		t.Error("killed worker produced no recorded failures")
	}
	if st.Retries == 0 && st.LocalFallbackShards == 0 {
		t.Errorf("no retries and no fallback after a worker death: %+v", st)
	}
}

// TestFleetCorruptWorker pairs a healthy worker with one that answers
// every shard with a corrupt payload (malformed JSON, wrong result
// counts, mismatched paths, mis-routed shard ids). Validation must turn
// each into a dispatch failure; the study must come out identical.
func TestFleetCorruptWorker(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	good := startWorker(t)
	var n atomic.Int64
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			io.WriteString(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		switch n.Add(1) % 3 {
		case 0:
			io.WriteString(w, `{"shard": 9999, "results": []}`)
		case 1:
			io.WriteString(w, `{"shard"`)
		default:
			io.WriteString(w, `{"shard": 0, "results": [{"summary": null, "error": ""}]}`)
		}
	}))
	t.Cleanup(corrupt.Close)

	coord := New(testConfig(good.URL, corrupt.URL))
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)
	st := coord.Stats()
	if st.CorruptResponses == 0 {
		t.Errorf("no corrupt responses recorded: %+v", st)
	}
}

// TestFleetLyingWorker pairs a slow healthy worker with one that proxies
// a real worker and appends an undeclared system call to every summary
// it returns. Validation must reject each such response as corrupt, the
// shard must be retried elsewhere, the study must come out identical,
// and no lie may reach the process's API intern table.
func TestFleetLyingWorker(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	goodWorker := NewWorker(WorkerConfig{})
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Slow but correct, so the liar answers its share of shards.
		time.Sleep(20 * time.Millisecond)
		goodWorker.ServeHTTP(w, r)
	}))
	t.Cleanup(good.Close)
	real := NewWorker(WorkerConfig{})
	var lies atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != AnalyzePath {
			real.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		real.ServeHTTP(rec, r)
		var resp ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		for i := range resp.Results {
			if sum := resp.Results[i].Summary; sum != nil && len(sum.Funcs) > 0 {
				lie := linuxapi.Sys(fmt.Sprintf("fleet_lie_%d", lies.Add(1)))
				sum.Funcs[0].APIs = append(sum.Funcs[0].APIs, lie)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&resp)
	}))
	t.Cleanup(liar.Close)

	universe := linuxapi.InternUniverse()
	coord := New(testConfig(good.URL, liar.URL))
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)
	if n := linuxapi.InternUniverse(); n != universe {
		t.Errorf("the fleet run grew the intern table from %d to %d", universe, n)
	}
	if lies.Load() == 0 {
		t.Fatal("the lying worker answered no shard")
	}
	if st := coord.Stats(); st.CorruptResponses == 0 {
		t.Errorf("no corrupt responses recorded after %d lies: %+v", lies.Load(), st)
	}
}

// TestFleetNoWorkers checks graceful degradation: an empty fleet analyzes
// everything in-process and says so in its counters.
func TestFleetNoWorkers(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord := New(Config{Shards: 4})
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)
	st := coord.Stats()
	if st.LocalFallbackShards != st.ShardsTotal || st.ShardsTotal == 0 {
		t.Errorf("stats = %+v, want every shard local", st)
	}
	if st.Dispatched != 0 {
		t.Errorf("dispatched %d shards with no workers", st.Dispatched)
	}
}

// TestFleetAllWorkersUnreachable points the coordinator at dead
// addresses: every worker must be evicted and the whole run must fall
// back to local analysis without losing a binary.
func TestFleetAllWorkersUnreachable(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dead := httptest.NewServer(nil)
	dead.Close() // nothing listens here anymore

	cfg := testConfig(dead.URL)
	cfg.FailureLimit = 1
	coord := New(cfg)
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)
	st := coord.Stats()
	if st.Evictions == 0 {
		t.Errorf("unreachable worker never evicted: %+v", st)
	}
	if st.LocalFallbackShards != st.ShardsTotal {
		t.Errorf("fallback shards %d != total %d", st.LocalFallbackShards, st.ShardsTotal)
	}
}

// TestFleetHedgesStraggler gives one worker a large per-shard delay: once
// the fast worker drains its own shards, the hedger must re-dispatch the
// straggler's outstanding shard to it, and the first (fast) result wins.
func TestFleetHedgesStraggler(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	fast := startWorker(t)
	real := NewWorker(WorkerConfig{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(400 * time.Millisecond)
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	cfg := testConfig(fast.URL, slow.URL)
	cfg.Shards = 4
	cfg.HedgeAfter = 30 * time.Millisecond
	coord := New(cfg)
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)
	if st := coord.Stats(); st.Hedges == 0 {
		t.Errorf("straggler never hedged: %+v", st)
	}
}

// TestFleetEvictionAndReadmission takes one worker down hard enough to be
// evicted, brings it back, and requires the coordinator to re-admit it
// within the same run.
func TestFleetEvictionAndReadmission(t *testing.T) {
	c := fleetTestCorpus(t)
	local, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}

	real := NewWorker(WorkerConfig{})
	var down atomic.Bool
	down.Store(true)
	var rejects atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			// Recover only after enough rejections (dispatches and then a
			// readmission probe) to guarantee the eviction already fired —
			// wall-clock recovery races with slow test startup.
			if rejects.Add(1) >= 3 {
				down.Store(false)
			}
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	slowReal := NewWorker(WorkerConfig{})
	steady := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Slow but correct: keeps the run alive long enough for the
		// flaky worker to recover and rejoin.
		time.Sleep(50 * time.Millisecond)
		slowReal.ServeHTTP(w, r)
	}))
	t.Cleanup(steady.Close)

	cfg := testConfig(steady.URL, flaky.URL)
	cfg.Shards = 12
	cfg.FailureLimit = 2
	cfg.EvictFor = 15 * time.Millisecond
	cfg.MaxRetries = 20
	coord := New(cfg)
	dist, err := core.RunWith(c, footprint.Options{}, nil, coord.AnalyzeJobs)
	if err != nil {
		t.Fatal(err)
	}
	sameStudy(t, local, dist)
	st := coord.Stats()
	if st.Evictions == 0 {
		t.Errorf("flaky worker never evicted: %+v", st)
	}
	if st.Readmissions == 0 {
		t.Errorf("recovered worker never re-admitted: %+v", st)
	}
}

// TestAvgLatencySubMillisecond pins the per-worker mean to nanosecond
// resolution: two 400µs dispatches average 0.4 ms, not a truncated 0.
func TestAvgLatencySubMillisecond(t *testing.T) {
	c := New(Config{Workers: []string{"http://w1"}})
	c.workers[0].latencySum = 2 * 400 * time.Microsecond
	c.workers[0].latencyCount = 2
	if got := c.Stats().Workers[0].AvgLatencyMs; got != 0.4 {
		t.Errorf("AvgLatencyMs = %v, want 0.4", got)
	}
	var w obs.Writer
	c.WriteMetrics(&w)
	if line := `apiserved_fleet_worker_avg_latency_ms{worker="http://w1"} 0.4`; !strings.Contains(w.String(), line+"\n") {
		t.Errorf("metrics missing %q:\n%s", line, w.String())
	}
}
