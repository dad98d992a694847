package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/jobs"
)

// TestHandler checks the worker's assembled handler: the job routes
// answer with apiserved's error envelope, /healthz still reaches the
// worker, and one /metrics page carries both the worker's families and
// the job tier's.
func TestHandler(t *testing.T) {
	worker := fleet.NewWorker(fleet.WorkerConfig{})
	mgr := jobs.New(jobs.Config{Workers: 1})
	if err := mgr.Register(worker.ShardExecutor()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(newHandler(worker, mgr, nil))
	t.Cleanup(ts.Close)

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, body := get("/v1/jobs/j-0000000000000000")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404: %s", resp.StatusCode, body)
	}
	var env struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil || env.Error == "" ||
		env.RequestID == "" || env.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("unknown job body = %q (X-Request-ID %q), want the error envelope",
			body, resp.Header.Get("X-Request-ID"))
	}

	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(body, `"shards"`) {
		t.Fatalf("healthz = %d: %s", resp.StatusCode, body)
	}

	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{"\napiworker_shards_total 0\n", "\napiserved_jobs_enabled 1\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics page lacks %q", strings.TrimSpace(want))
		}
	}
}
