package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// The job tier's HTTP contract, pinned once and run against both ways
// of mounting it: inside the API server (New) and alone (NewJobs, as
// cmd/apiworker serves it).

// fnExec adapts a function to jobs.Executor.
type fnExec struct {
	typ string
	fn  func(ctx context.Context, params json.RawMessage) (any, error)
}

func (e fnExec) Type() string { return e.typ }
func (e fnExec) Execute(ctx context.Context, p json.RawMessage) (any, error) {
	return e.fn(ctx, p)
}

// echoExec answers a job with its own params.
var echoExec = fnExec{typ: "echo", fn: func(_ context.Context, p json.RawMessage) (any, error) {
	return p, nil
}}

// jobMounts are the two constructors that serve the job routes.
var jobMounts = []struct {
	name  string
	mount func(t *testing.T, m *jobs.Manager, opts Options) http.Handler
}{
	{"New", func(t *testing.T, m *jobs.Manager, opts Options) http.Handler {
		_, svc := testAPI(t)
		opts.Jobs = m
		return New(svc, opts)
	}},
	{"NewJobs", func(t *testing.T, m *jobs.Manager, opts Options) http.Handler {
		return NewJobs(m, opts)
	}},
}

// jobSurface is one mount over a fresh spooled manager running three
// executors: echo, slow (finishes with 99 once gate closes) and doomed
// (always fails; one attempt, so its jobs go dead).
type jobSurface struct {
	m     *jobs.Manager
	ts    *httptest.Server
	spool string
	gate  chan struct{}
}

func newJobSurface(t *testing.T, mount func(*testing.T, *jobs.Manager, Options) http.Handler, timeout time.Duration) *jobSurface {
	t.Helper()
	s := &jobSurface{spool: t.TempDir(), gate: make(chan struct{})}
	s.m = jobs.New(jobs.Config{SpoolDir: s.spool, Workers: 2, MaxAttempts: 1})
	for _, ex := range []jobs.Executor{
		echoExec,
		fnExec{typ: "slow", fn: func(ctx context.Context, _ json.RawMessage) (any, error) {
			select {
			case <-s.gate:
			case <-ctx.Done():
			}
			return 99, nil
		}},
		fnExec{typ: "doomed", fn: func(context.Context, json.RawMessage) (any, error) {
			return nil, errors.New("broken")
		}},
	} {
		if err := s.m.Register(ex); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.m.Start(); err != nil {
		t.Fatal(err)
	}
	if timeout == 0 {
		timeout = time.Minute
	}
	s.ts = httptest.NewServer(mount(t, s.m, Options{RequestTimeout: timeout}))
	t.Cleanup(func() {
		s.ts.Close()
		s.m.Close()
	})
	return s
}

// do sends one request and returns the response with its body read.
// Every non-2xx answer must be the error envelope, with a non-empty
// error and the request ID the response header echoes.
func (s *jobSurface) do(t *testing.T, method, path, body string, header ...string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, s.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := s.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" ||
			e.RequestID == "" || e.RequestID != resp.Header.Get(requestIDHeader) {
			t.Fatalf("%s %s = %d with body %q (X-Request-ID %q): not the error envelope",
				method, path, resp.StatusCode, raw, resp.Header.Get(requestIDHeader))
		}
	}
	return resp, raw
}

// expectStatus fails unless resp has the given status, and decodes the body
// into v when v is non-nil.
func expectStatus(t *testing.T, resp *http.Response, raw []byte, code int, v any) {
	t.Helper()
	if resp.StatusCode != code {
		t.Fatalf("%s %s = %d, want %d: %s", resp.Request.Method, resp.Request.URL.Path,
			resp.StatusCode, code, raw)
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s %s: decoding %s: %v", resp.Request.Method, resp.Request.URL.Path, raw, err)
		}
	}
}

// submit posts params to /v1/jobs/typ and returns the job record.
func (s *jobSurface) submit(t *testing.T, typ, params string, code int) jobs.Job {
	t.Helper()
	var j jobs.Job
	resp, raw := s.do(t, "POST", "/v1/jobs/"+typ, params)
	expectStatus(t, resp, raw, code, &j)
	return j
}

type jobList struct {
	Jobs  []jobs.Job `json:"jobs"`
	Count int        `json:"count"`
}

func TestJobSurface(t *testing.T) {
	generated := regexp.MustCompile(`^r-[0-9a-f]{16}$`)
	rows := []struct {
		name    string
		timeout time.Duration // the mount's RequestTimeout; 0 is one minute
		run     func(t *testing.T, s *jobSurface)
	}{
		{name: "submit-202-resubmit-200", run: func(t *testing.T, s *jobSurface) {
			j := s.submit(t, "echo", `{"hello":"world"}`, http.StatusAccepted)
			if j.ID == "" || j.Type != "echo" || j.State != jobs.StateQueued && j.State != jobs.StateRunning && j.State != jobs.StateDone {
				t.Fatalf("submitted = %+v", j)
			}
			if dup := s.submit(t, "echo", ` { "hello": "world" } `, http.StatusOK); dup.ID != j.ID {
				t.Fatalf("resubmission got job %s, want %s", dup.ID, j.ID)
			}
		}},
		{name: "status-long-poll-done", run: func(t *testing.T, s *jobSurface) {
			j := s.submit(t, "echo", `{"n":1}`, http.StatusAccepted)
			resp, raw := s.do(t, "GET", "/v1/jobs/"+j.ID+"?wait=20s", "")
			expectStatus(t, resp, raw, http.StatusOK, &j)
			if j.State != jobs.StateDone {
				t.Fatalf("long-polled state = %s, want done", j.State)
			}
		}},
		{name: "result-pending-202-wait-200", run: func(t *testing.T, s *jobSurface) {
			j := s.submit(t, "slow", `{}`, http.StatusAccepted)
			var pending jobs.Job
			resp, raw := s.do(t, "GET", "/v1/jobs/"+j.ID+"/result", "")
			expectStatus(t, resp, raw, http.StatusAccepted, &pending)
			if pending.ID != j.ID || pending.State.Terminal() {
				t.Fatalf("pending result = %+v", pending)
			}
			done := make(chan string, 1)
			go func() {
				resp, err := s.ts.Client().Get(s.ts.URL + "/v1/jobs/" + j.ID + "/result?wait=20s")
				if err != nil {
					done <- err.Error()
					return
				}
				defer resp.Body.Close()
				raw, _ := io.ReadAll(resp.Body)
				done <- fmt.Sprintf("%d %s", resp.StatusCode, strings.TrimSpace(string(raw)))
			}()
			time.Sleep(10 * time.Millisecond)
			close(s.gate)
			if got := <-done; got != "200 99" {
				t.Fatalf("waited result = %q, want \"200 99\"", got)
			}
		}},
		{name: "dead-listed-result-500", run: func(t *testing.T, s *jobSurface) {
			j := s.submit(t, "doomed", `{}`, http.StatusAccepted)
			resp, raw := s.do(t, "GET", "/v1/jobs/"+j.ID+"?wait=20s", "")
			expectStatus(t, resp, raw, http.StatusOK, &j)
			if j.State != jobs.StateDead {
				t.Fatalf("doomed job = %s, want dead", j.State)
			}
			var list jobList
			resp, raw = s.do(t, "GET", "/v1/jobs?state=dead", "")
			expectStatus(t, resp, raw, http.StatusOK, &list)
			if list.Count != 1 || len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
				t.Fatalf("dead list = %+v", list)
			}
			var e errorBody
			resp, raw = s.do(t, "GET", "/v1/jobs/"+j.ID+"/result", "")
			expectStatus(t, resp, raw, http.StatusInternalServerError, &e)
			if !strings.Contains(e.Error, "broken") {
				t.Fatalf("dead result error = %q, want the job's error", e.Error)
			}
		}},
		{name: "unknown-type-404", run: func(t *testing.T, s *jobSurface) {
			s.submit(t, "nope", `{}`, http.StatusNotFound)
		}},
		{name: "malformed-params-400", run: func(t *testing.T, s *jobSurface) {
			s.submit(t, "echo", `{bad`, http.StatusBadRequest)
			s.submit(t, "echo", `{} {}`, http.StatusBadRequest)
		}},
		{name: "unknown-job-404", run: func(t *testing.T, s *jobSurface) {
			for _, path := range []string{"/v1/jobs/j-0000000000000000", "/v1/jobs/j-0000000000000000?wait=1s",
				"/v1/jobs/j-0000000000000000/result", "/v1/jobs/j-0000000000000000/result?wait=1s"} {
				resp, raw := s.do(t, "GET", path, "")
				expectStatus(t, resp, raw, http.StatusNotFound, nil)
			}
		}},
		{name: "bad-wait-400", run: func(t *testing.T, s *jobSurface) {
			j := s.submit(t, "echo", `{}`, http.StatusAccepted)
			for _, path := range []string{"/v1/jobs/" + j.ID + "?wait=bogus", "/v1/jobs/" + j.ID + "/result?wait=5"} {
				resp, raw := s.do(t, "GET", path, "")
				expectStatus(t, resp, raw, http.StatusBadRequest, nil)
			}
		}},
		{name: "bad-state-400", run: func(t *testing.T, s *jobSurface) {
			resp, raw := s.do(t, "GET", "/v1/jobs?state=bogus", "")
			expectStatus(t, resp, raw, http.StatusBadRequest, nil)
		}},
		{name: "wait-clamped", timeout: 1500 * time.Millisecond, run: func(t *testing.T, s *jobSurface) {
			for _, c := range []struct {
				q    string
				want time.Duration
			}{{"", 0}, {"2s", 2 * time.Second}, {"-3s", 0}, {"10m", time.Minute}} {
				if d, err := parseWait(c.q, time.Minute); err != nil || d != c.want {
					t.Fatalf("parseWait(%q) = %v, %v; want %v", c.q, d, err, c.want)
				}
			}
			if _, err := parseWait("soon", time.Minute); err == nil {
				t.Fatal("parseWait accepted bad syntax")
			}
			// A 1.5s request timeout caps a long-poll at 500ms (the
			// timeout minus 1s): an hour's wait on a job that cannot
			// finish answers 200 with its record before the timeout
			// would cut it.
			j := s.submit(t, "slow", `{}`, http.StatusAccepted)
			start := time.Now()
			resp, raw := s.do(t, "GET", "/v1/jobs/"+j.ID+"?wait=1h", "")
			expectStatus(t, resp, raw, http.StatusOK, &j)
			if took := time.Since(start); j.State.Terminal() || took < 450*time.Millisecond || took > 1400*time.Millisecond {
				t.Fatalf("wait=1h answered %s after %s, want a live record after ~500ms", j.State, took)
			}
		}},

		// Rows where the two surfaces once answered differently.
		{name: "limit-5x-400", run: func(t *testing.T, s *jobSurface) {
			resp, raw := s.do(t, "GET", "/v1/jobs?limit=5x", "")
			expectStatus(t, resp, raw, http.StatusBadRequest, nil)
		}},
		{name: "negative-limit-400", run: func(t *testing.T, s *jobSurface) {
			s.submit(t, "echo", `{}`, http.StatusAccepted)
			for _, q := range []string{"-1", "-3"} {
				resp, raw := s.do(t, "GET", "/v1/jobs?limit="+q, "")
				expectStatus(t, resp, raw, http.StatusBadRequest, nil)
			}
			for _, path := range []string{"/v1/jobs", "/v1/jobs?limit=0", "/v1/jobs?limit=1"} {
				var list jobList
				resp, raw := s.do(t, "GET", path, "")
				expectStatus(t, resp, raw, http.StatusOK, &list)
				if list.Count != 1 {
					t.Fatalf("%s listed %d jobs, want 1", path, list.Count)
				}
			}
		}},
		{name: "bad-request-id-replaced", run: func(t *testing.T, s *jobSurface) {
			bad := "has spaces <script>alert(1)</script>" + strings.Repeat("x", 60)
			var j jobs.Job
			resp, raw := s.do(t, "POST", "/v1/jobs/echo", `{"rid":1}`, requestIDHeader, bad)
			expectStatus(t, resp, raw, http.StatusAccepted, &j)
			rid := resp.Header.Get(requestIDHeader)
			if !generated.MatchString(rid) || j.RequestID != rid {
				t.Fatalf("X-Request-ID %q, record request_id %q: want one generated ID in both", rid, j.RequestID)
			}
			if got, ok := s.m.Get(j.ID); !ok || got.RequestID != rid {
				t.Fatalf("manager record = %+v, want request_id %q", got, rid)
			}
			data, err := os.ReadFile(filepath.Join(s.spool, "jobs", j.ID+".json"))
			var spooled jobs.Job
			if err == nil {
				err = json.Unmarshal(data, &spooled)
			}
			if err != nil || spooled.RequestID != rid {
				t.Fatalf("spooled record %s (%v), want request_id %q", data, err, rid)
			}
			// A valid ID is the client's own, echoed and stamped.
			resp, raw = s.do(t, "POST", "/v1/jobs/echo", `{"rid":2}`, requestIDHeader, "trace-123")
			expectStatus(t, resp, raw, http.StatusAccepted, &j)
			if resp.Header.Get(requestIDHeader) != "trace-123" || j.RequestID != "trace-123" {
				t.Fatalf("valid ID: header %q, record %q", resp.Header.Get(requestIDHeader), j.RequestID)
			}
		}},
		{name: "delete-405-allow", run: func(t *testing.T, s *jobSurface) {
			resp, raw := s.do(t, "DELETE", "/v1/jobs/x", "")
			expectStatus(t, resp, raw, http.StatusMethodNotAllowed, nil)
			if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
				t.Fatalf("Allow = %q, want GET", allow)
			}
		}},
		{name: "job-deduped-header", run: func(t *testing.T, s *jobSurface) {
			for _, wantDeduped := range []string{"false", "true"} {
				resp, raw := s.do(t, "POST", "/v1/jobs/echo", `{"d":1}`)
				if got := resp.Header.Get("X-Job-Deduped"); resp.StatusCode/100 != 2 || got != wantDeduped {
					t.Fatalf("submit = %d with X-Job-Deduped %q, want %q: %s", resp.StatusCode, got, wantDeduped, raw)
				}
			}
		}},
	}
	for _, mount := range jobMounts {
		for _, row := range rows {
			t.Run(mount.name+"/"+row.name, func(t *testing.T) {
				row.run(t, newJobSurface(t, mount.mount, row.timeout))
			})
		}
	}
}
