package httpapi

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
)

var update = flag.Bool("update", false, "rewrite the golden response files from current output")

var (
	eqOnce  sync.Once
	eqStudy *repro.Study
	eqErr   error
)

// eqServer builds a fresh server over the shared study. A fresh service
// per call, so cache temperature is controlled by the test, not by
// ordering.
func eqServer(t *testing.T) *httptest.Server {
	t.Helper()
	eqOnce.Do(func() {
		eqStudy, eqErr = repro.NewStudy(repro.Config{Packages: 100, Installations: 150000, Seed: 31})
	})
	if eqErr != nil {
		t.Fatal(eqErr)
	}
	svc := service.New(eqStudy, "equivalence", service.Config{})
	ts := httptest.NewServer(New(svc, Options{RequestTimeout: time.Minute}))
	t.Cleanup(ts.Close)
	return ts
}

// requestIDPattern matches the per-request nonce in error envelopes; it
// is random on every request, so recorded bodies normalize it out.
var requestIDPattern = regexp.MustCompile(`"request_id": "r-[0-9a-f]+"`)

// fetch performs one request and returns status plus body bytes, with
// the error envelope's random request id normalized.
func fetch(t *testing.T, ts *httptest.Server, method, path string, body string) (int, []byte) {
	t.Helper()
	code, _, raw := fetchETag(t, ts, method, path, body)
	return code, raw
}

// fetchETag is fetch plus the response's ETag header.
func fetchETag(t *testing.T, ts *httptest.Server, method, path, body string) (int, string, []byte) {
	t.Helper()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, ts.URL+path, nil)
	} else {
		req, err = http.NewRequest(method, ts.URL+path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), requestIDPattern.ReplaceAll(raw, []byte(`"request_id": "r-X"`))
}

// transcript records a request sequence against one server: per
// response a "=== label METHOD path" header, the request body, the
// status, the ETag, then the body bytes.
type transcript struct {
	t   *testing.T
	ts  *httptest.Server
	buf bytes.Buffer
}

func (tr *transcript) do(label, method, path, body string) {
	tr.t.Helper()
	code, etag, raw := fetchETag(tr.t, tr.ts, method, path, body)
	fmt.Fprintf(&tr.buf, "=== %s %s %s\n", label, method, path)
	if body != "" {
		fmt.Fprintf(&tr.buf, "request: %s\n", body)
	}
	fmt.Fprintf(&tr.buf, "status: %d\netag: %s\n", code, etag)
	tr.buf.Write(raw)
}

// checkGolden compares a transcript with testdata/name (rewritten first
// under -update) and reports the first response that drifted.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gr, wr := strings.Split(string(got), "\n=== "), strings.Split(string(want), "\n=== ")
	for i := 0; i < len(gr) && i < len(wr); i++ {
		if gr[i] != wr[i] {
			t.Fatalf("%s: response %d drifted:\n--- got ---\n%s\n--- want ---\n%s", golden, i, gr[i], wr[i])
		}
	}
	t.Fatalf("%s: %d responses, golden has %d", golden, len(gr), len(wr))
}

// The golden response files under testdata/ are the byte-identity
// contract of every query route: status, ETag and body of each
// response, cold and warm. They were recorded when a struct-cache read
// path ("legacy") still served beside the encoded byte path, and
// checked against both: bodies and statuses were identical (the legacy
// path sent no ETag), with hotset answers — warm from birth on the byte
// path — matching the legacy path's second, cached response. Matching
// them is matching the legacy bytes.

// TestByteHandlersMatchLegacy replays the query routes against the
// golden responses: error answers, cold-then-warm pairs, hotset answers
// and the suggest k-range the hotset precomputes (plus one past it).
func TestByteHandlersMatchLegacy(t *testing.T) {
	ts := eqServer(t)
	tr := &transcript{t: t, ts: ts}

	// No cache temperature in the body: both passes are identical.
	stateless := []struct{ method, path, body string }{
		{"GET", "/v1/importance/read", ""},
		{"GET", "/v1/importance/lookup_dcookie", ""},
		{"GET", "/v1/importance/no_such_call", ""},
		{"GET", "/v1/footprint/definitely-not-a-package", ""},
		{"GET", "/v1/path?n=bogus", ""},
		{"GET", "/v1/trends/importance", ""}, // no series resident: 404
		{"POST", "/v1/completeness", `{not json`},
	}
	for _, q := range stateless {
		for pass := 0; pass < 2; pass++ {
			tr.do(fmt.Sprintf("pass %d", pass), q.method, q.path, q.body)
		}
	}

	// Bodies carrying a "cached" flag: cold, then warm.
	pkg := eqStudy.Packages()[0]
	cachedQueries := []struct{ method, path, body string }{
		{"POST", "/v1/completeness", `{"syscalls":["read","write","openat"]}`},
		{"POST", "/v1/suggest", `{"supported":["read","write"],"k":4}`},
		{"GET", "/v1/path?n=7", ""},
		{"GET", "/v1/seccomp/" + pkg + "?deny=kill", ""},
	}
	for _, q := range cachedQueries {
		tr.do("cold", q.method, q.path, q.body)
		tr.do("warm", q.method, q.path, q.body)
	}

	// Hotset-precomputed answers are warm from the first request.
	for _, path := range []string{"/v1/path", "/v1/compat/systems"} {
		tr.do("first", "GET", path, "")
		tr.do("second", "GET", path, "")
	}

	// Suggest k-range: every k the hotset precomputes and one past it.
	for k := 1; k <= 9; k++ {
		body := fmt.Sprintf(`{"supported":["read","write","openat","close"],"k":%d}`, k)
		tr.do("cold", "POST", "/v1/suggest", body)
		tr.do("warm", "POST", "/v1/suggest", body)
	}
	checkGolden(t, "query_golden.txt", tr.buf.Bytes())
}

// TestByteHandlersMatchLegacyTrends replays the trend and
// generation-selector routes, with a release series resident, against
// the golden responses.
func TestByteHandlersMatchLegacyTrends(t *testing.T) {
	ts := httptest.NewServer(New(freshTrendsService(t), Options{RequestTimeout: time.Minute}))
	defer ts.Close()
	tr := &transcript{t: t, ts: ts}

	queries := []struct{ method, path, body string }{
		{"GET", "/v1/trends/importance?top=5", ""},
		{"GET", "/v1/trends/importance?api=open", ""},
		{"GET", "/v1/trends/completeness", ""},
		{"GET", "/v1/trends/completeness?target=graphene", ""},
		{"GET", "/v1/trends/path", ""},
		{"GET", "/v1/trends/path?direction=toward&limit=3", ""},
		{"GET", "/v1/trends/path?direction=sideways", ""}, // 400
		{"GET", "/v1/importance/open?gen=1", ""},
		{"GET", "/v1/importance/open?gen=99", ""}, // bad generation: 400
		{"GET", "/v1/path?gen=0&n=5", ""},
		{"POST", "/v1/completeness?gen=1", `{"syscalls":["read","write","openat"]}`},
		{"POST", "/v1/suggest?gen=0", `{"supported":["read","write"],"k":3}`},
	}
	for _, q := range queries {
		tr.do("cold", q.method, q.path, q.body)
		tr.do("warm", q.method, q.path, q.body)
	}
	checkGolden(t, "trends_golden.txt", tr.buf.Bytes())
}

// freshTrendsService builds a new service over the shared test study
// with the shared 3-generation series installed.
func freshTrendsService(t *testing.T) *service.Service {
	t.Helper()
	_, base := testAPI(t)
	_, reference := trendsAPI(t) // forces the shared series fixture to exist
	svc := service.New(base.Snapshot().Study, "trends-eq", service.Config{})
	svc.InstallSeries(reference.Series(), time.Second)
	return svc
}

// TestETagRoundTrip pins conditional-request behavior on the byte
// path: a response carries a strong ETag; replaying it in
// If-None-Match yields 304 with an empty body; a different validator
// yields the full answer again.
func TestETagRoundTrip(t *testing.T) {
	hot := eqServer(t)

	resp, err := hot.Client().Get(hot.URL + "/v1/importance/read")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || len(body) == 0 {
		t.Fatalf("first response = %d, ETag %q, %d bytes", resp.StatusCode, etag, len(body))
	}
	if got := resp.Header.Get("Content-Length"); got == "" {
		t.Error("no Content-Length on byte-path response")
	}

	for _, match := range []string{etag, "*", "W/" + etag, `"bogus", ` + etag} {
		req, _ := http.NewRequest("GET", hot.URL+"/v1/importance/read", nil)
		req.Header.Set("If-None-Match", match)
		resp, err := hot.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified || len(raw) != 0 {
			t.Errorf("If-None-Match %q = %d with %d bytes, want 304 empty", match, resp.StatusCode, len(raw))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Errorf("304 ETag = %q, want %q", got, etag)
		}
	}

	req, _ := http.NewRequest("GET", hot.URL+"/v1/importance/read", nil)
	req.Header.Set("If-None-Match", `"0000000000000000"`)
	resp, err = hot.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(raw, body) {
		t.Errorf("stale validator = %d with %d bytes, want the full 200 answer", resp.StatusCode, len(raw))
	}

	// Error answers must not 304: a 404's validator is not a validator.
	req, _ = http.NewRequest("GET", hot.URL+"/v1/importance/no_such_call", nil)
	resp, err = hot.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	notFoundETag := resp.Header.Get("ETag")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if notFoundETag != "" {
		req, _ = http.NewRequest("GET", hot.URL+"/v1/importance/no_such_call", nil)
		req.Header.Set("If-None-Match", notFoundETag)
		resp, err = hot.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotModified {
			t.Error("404 answer revalidated to 304")
		}
	}
}

// TestPerEndpointCacheMetrics drives labeled traffic through the byte
// path and checks /metrics exports the per-endpoint cache series, the
// hotset gauges, and the singleflight counter.
func TestPerEndpointCacheMetrics(t *testing.T) {
	hot := eqServer(t)

	// importance: hotset hit. footprint: byte-cache miss then hit.
	fetch(t, hot, "GET", "/v1/importance/read", "")
	pkg := eqStudy.Packages()[0]
	fetch(t, hot, "GET", "/v1/footprint/"+pkg, "")
	fetch(t, hot, "GET", "/v1/footprint/"+pkg, "")

	_, raw := fetch(t, hot, "GET", "/metrics", "")
	text := string(raw)
	for _, want := range []string{
		`apiserved_cache_hits_total{endpoint="footprint"} 1`,
		`apiserved_cache_misses_total{endpoint="footprint"} 1`,
		`apiserved_cache_hits_total{endpoint="importance"} 0`,
		`apiserved_cache_evictions_total{endpoint="path"} 0`,
		"apiserved_cache_bytes",
		"apiserved_cache_capacity_bytes",
		"apiserved_cache_byte_entries",
		"apiserved_cache_oversize_total 0",
		"apiserved_hotset_hits_total 1",
		"apiserved_hotset_bytes",
		"apiserved_hotset_entries",
		"apiserved_singleflight_shared_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
