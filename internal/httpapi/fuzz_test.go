package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
)

// FuzzJobRoutes sends arbitrary requests to the job routes as NewJobs
// serves them: any method, a path below /v1/jobs, a query, an
// X-Request-ID and a body. "{id}" in the path suffix stands for the ID
// of an echo job submitted first, so the status and result routes meet
// a job that exists. Seeds are in testdata/fuzz/FuzzJobRoutes. No
// request may panic, and
//   - every response echoes an X-Request-ID that validRequestID accepts;
//   - every non-2xx body is the error envelope, with a non-empty error
//     and that same request ID, and a redirect names its Location;
//   - an accepted submission's record carries a valid request ID, and
//     its params are jobs.Canonicalize of the body sent.
func FuzzJobRoutes(f *testing.F) {
	m := jobs.New(jobs.Config{Workers: 1})
	if err := m.Register(echoExec); err != nil {
		f.Fatal(err)
	}
	if err := m.Start(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(m.Close)
	known, _, err := m.Submit("echo", json.RawMessage(`{"seed":true}`), jobs.SubmitOptions{})
	if err != nil {
		f.Fatal(err)
	}
	// A 40ms request timeout caps every long-poll at 20ms.
	h := NewJobs(m, Options{RequestTimeout: 40 * time.Millisecond})

	f.Fuzz(func(t *testing.T, method, suffix, query, rid string, body []byte) {
		target := "http://example.com/v1/jobs" + strings.ReplaceAll(suffix, "{id}", known.ID)
		if query != "" {
			target += "?" + query
		}
		req, err := http.NewRequest(method, target, bytes.NewReader(body))
		if err != nil {
			return // no server reads a request that does not parse
		}
		req.Header.Set(requestIDHeader, rid)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		got := rec.Header().Get(requestIDHeader)
		if !validRequestID(got) {
			t.Fatalf("%s %s: response X-Request-ID %q is not a valid ID", method, target, got)
		}
		if rec.Code/100 == 3 && rec.Header().Get("Location") == "" {
			t.Fatalf("%s %s = %d with no Location", method, target, rec.Code)
		}
		if rec.Code/100 != 2 {
			var e errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || e.RequestID != got {
				t.Fatalf("%s %s = %d with body %q: not the error envelope for request %q",
					method, target, rec.Code, rec.Body.Bytes(), got)
			}
			return
		}
		if req.Method != http.MethodPost {
			return
		}
		var j jobs.Job
		if err := json.Unmarshal(rec.Body.Bytes(), &j); err != nil {
			t.Fatalf("POST %s = %d with body %q: %v", target, rec.Code, rec.Body.Bytes(), err)
		}
		stored, ok := m.Get(j.ID)
		if !ok || !validRequestID(stored.RequestID) {
			t.Fatalf("POST %s accepted job %+v; manager record %+v", target, j, stored)
		}
		canon, err := jobs.Canonicalize(body)
		if err != nil || !bytes.Equal(stored.Params, canon) {
			t.Fatalf("POST %s with body %q: record params %s, Canonicalize gives %s (%v)",
				target, body, stored.Params, canon, err)
		}
	})
}
