package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/anacache"
	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/jobs"
)

// workerJobs pulls a handful of real ELF jobs out of a generated corpus.
func workerJobs(t *testing.T, n int) []core.BinaryJob {
	t.Helper()
	c := fleetTestCorpus(t)
	var jobs []core.BinaryJob
	for _, name := range c.Repo.Names() {
		pkg := c.Repo.Get(name)
		for _, f := range pkg.Files {
			class, _ := elfx.Classify(f.Data)
			switch class {
			case elfx.ClassELFExec, elfx.ClassELFStatic:
				jobs = append(jobs, core.BinaryJob{Pkg: name, Path: f.Path, Data: f.Data})
			case elfx.ClassELFLib:
				jobs = append(jobs, core.BinaryJob{Pkg: name, Path: f.Path, Data: f.Data, Lib: true})
			default:
				continue
			}
			if len(jobs) == n {
				return jobs
			}
		}
	}
	return jobs
}

func postShard(t *testing.T, url string, req *ShardRequest) (*http.Response, *ShardResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+AnalyzePath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	var sr ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return resp, &sr
}

// TestWorkerRoundtrip proves the wire format carries analysis results
// losslessly: summaries returned over HTTP equal the ones computed
// directly in-process.
func TestWorkerRoundtrip(t *testing.T) {
	jobs := workerJobs(t, 8)
	if len(jobs) == 0 {
		t.Fatal("no ELF jobs in test corpus")
	}
	srv := startWorker(t)

	req := &ShardRequest{Shard: 3, Files: make([]ShardFile, len(jobs))}
	for i, j := range jobs {
		req.Files[i] = ShardFile{Pkg: j.Pkg, Path: j.Path, Lib: j.Lib, Data: j.Data}
	}
	resp, sr := postShard(t, srv.URL, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if err := sr.validate(req); err != nil {
		t.Fatal(err)
	}

	want := core.AnalyzeJobsLocal(jobs, footprint.Options{}, nil)
	for i := range want {
		got, err := json.Marshal(sr.Results[i].Summary)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := json.Marshal(want[i].Summary)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Errorf("file %d (%s): remote summary differs from local", i, jobs[i].Path)
		}
	}
}

// TestWorkerUsesCache re-sends the same shard and expects the second pass
// to be answered from the worker's analysis cache — but only when the
// request options match the cache's.
func TestWorkerUsesCache(t *testing.T) {
	jobs := workerJobs(t, 4)
	cache, err := anacache.Open(t.TempDir(), footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewWorker(WorkerConfig{Cache: cache}))
	t.Cleanup(srv.Close)

	req := &ShardRequest{Files: make([]ShardFile, len(jobs))}
	for i, j := range jobs {
		req.Files[i] = ShardFile{Pkg: j.Pkg, Path: j.Path, Lib: j.Lib, Data: j.Data}
	}
	postShard(t, srv.URL, req)
	cold := cache.Stats()
	if cold.Writes == 0 {
		t.Fatalf("cold shard wrote no cache records: %+v", cold)
	}
	postShard(t, srv.URL, req)
	warm := cache.Stats()
	if warm.Hits == 0 || warm.Misses != cold.Misses {
		t.Errorf("warm shard not served from cache: cold %+v warm %+v", cold, warm)
	}

	// Different analysis options must bypass the cache entirely.
	mismatched := *req
	mismatched.Opts = footprint.Options{NoStrings: true}
	postShard(t, srv.URL, &mismatched)
	after := cache.Stats()
	if after.Hits != warm.Hits || after.Misses != warm.Misses {
		t.Errorf("mismatched options touched the cache: %+v -> %+v", warm, after)
	}
}

func TestWorkerHealthzAndMetrics(t *testing.T) {
	srv := startWorker(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz = %v", health)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "apiworker_shards_total") {
		t.Errorf("metrics missing apiworker_shards_total:\n%s", buf.String())
	}
}

// TestShardExecutor proves the job tier serves the same analysis as the
// HTTP shard endpoint: a shard-analyze job's result equals the local
// pipeline's, both paths share one pool, and malformed params fail
// permanently instead of burning retries.
func TestShardExecutor(t *testing.T) {
	work := workerJobs(t, 4)
	if len(work) == 0 {
		t.Fatal("no ELF jobs in test corpus")
	}
	pool := jobs.NewPool(1)
	w := NewWorker(WorkerConfig{Pool: pool})
	m := jobs.New(jobs.Config{Pool: pool, RetryBase: time.Millisecond})
	if err := m.Register(w.ShardExecutor()); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	req := &ShardRequest{Shard: 7, Files: make([]ShardFile, len(work))}
	for i, j := range work {
		req.Files[i] = ShardFile{Pkg: j.Pkg, Path: j.Path, Lib: j.Lib, Data: j.Data}
	}
	params, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit(JobShardAnalyze, params, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done, err := m.Wait(context.Background(), j.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone {
		t.Fatalf("job = %+v", done)
	}
	raw, _, err := m.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	var sr ShardResponse
	if err := json.Unmarshal(raw, &sr); err != nil {
		t.Fatal(err)
	}
	if err := sr.validate(req); err != nil {
		t.Fatal(err)
	}
	want := core.AnalyzeJobsLocal(work, footprint.Options{}, nil)
	for i := range want {
		got, _ := json.Marshal(sr.Results[i].Summary)
		exp, _ := json.Marshal(want[i].Summary)
		if !bytes.Equal(got, exp) {
			t.Errorf("file %d (%s): job-tier summary differs from local", i, work[i].Path)
		}
	}
	if w.shards.Load() == 0 || w.files.Load() != uint64(len(work)) {
		t.Errorf("executor did not feed worker counters: shards=%d files=%d",
			w.shards.Load(), w.files.Load())
	}

	// Garbage params are a permanent failure.
	bad, _, err := m.Submit(JobShardAnalyze, json.RawMessage(`{"files":"x"}`), jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	badDone, err := m.Wait(context.Background(), bad.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if badDone.State != jobs.StateFailed || badDone.Attempts != 1 {
		t.Fatalf("bad shard job = %+v, want failed after one attempt", badDone)
	}
}

// The HTTP endpoint and the job executor read a shard request alike:
// each rejects every body below, the endpoint with its status and the
// executor permanently, and both count it as a bad request.
func TestWorkerRejectsBadBody(t *testing.T) {
	valid := `{"shard":1,"files":[{"pkg":"p","path":"/bin/p","data":"f0VMRg=="}]}`
	for _, tc := range []struct {
		name, body string
		code       int
	}{
		{"syntax", "{nope", http.StatusBadRequest},
		{"trailing bytes", valid + "x", http.StatusBadRequest},
		{"second object", valid + valid, http.StatusBadRequest},
		{"no files", `{"shard":1,"files":[]}`, http.StatusBadRequest},
		{"missing files", `{"shard":1}`, http.StatusBadRequest},
		{"over the size cap", valid + strings.Repeat(" ", 3*len(valid)), http.StatusRequestEntityTooLarge},
	} {
		w := NewWorker(WorkerConfig{MaxBodyBytes: int64(3 * len(valid))})
		srv := httptest.NewServer(w)
		resp, err := http.Post(srv.URL+AnalyzePath, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		_, err = w.ShardExecutor().Execute(context.Background(), json.RawMessage(tc.body))
		if tc.code == http.StatusBadRequest && (!errors.Is(err, ErrMalformedRequest) || !errors.Is(err, jobs.ErrPermanent)) {
			t.Errorf("%s: executor returned %v, want a permanent ErrMalformedRequest", tc.name, err)
		}
		if bad := w.badShards.Load(); bad != 2 && tc.code == http.StatusBadRequest {
			t.Errorf("%s: %d bad requests counted, want 2", tc.name, bad)
		}
	}
	// A valid request followed by whitespace is analyzed.
	w := NewWorker(WorkerConfig{})
	if _, err := w.ShardExecutor().Execute(context.Background(), json.RawMessage(valid+" \n")); err != nil {
		t.Errorf("valid request with trailing whitespace: %v", err)
	}
}
