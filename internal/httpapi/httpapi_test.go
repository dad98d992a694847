package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/service"
)

var (
	srvOnce sync.Once
	srvAPI  *API
	srvSvc  *service.Service
	srvErr  error
)

// testAPI builds one study-backed API for the whole test file.
func testAPI(t *testing.T) (*API, *service.Service) {
	t.Helper()
	srvOnce.Do(func() {
		var study *repro.Study
		study, srvErr = repro.NewStudy(repro.Config{Packages: 150, Installations: 200000, Seed: 23})
		if srvErr != nil {
			return
		}
		srvSvc = service.New(study, "test", service.Config{})
		srvAPI = New(srvSvc, Options{MaxUploadBytes: 1 << 20, RequestTimeout: time.Minute})
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvAPI, srvSvc
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantCode int, v any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, wantCode, body)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any, wantCode int, v any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s = %d, want %d: %s", path, resp.StatusCode, wantCode, raw)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: decoding: %v", path, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	api, svc := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	var health struct {
		Status      string `json:"status"`
		Generation  uint64 `json:"generation"`
		Fingerprint string `json:"fingerprint"`
		Packages    int    `json:"packages"`
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Generation != svc.Generation() {
		t.Errorf("healthz = %+v", health)
	}
	if health.Fingerprint == "" || health.Packages != 150 {
		t.Errorf("healthz metadata = %+v", health)
	}
}

func TestImportanceEndpoint(t *testing.T) {
	api, _ := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	var res service.ImportanceResult
	getJSON(t, ts, "/v1/importance/read", http.StatusOK, &res)
	if !res.Known || res.Importance < 0.999 {
		t.Errorf("importance(read) = %+v", res)
	}
	getJSON(t, ts, "/v1/importance/no_such_call", http.StatusNotFound, nil)
	// Known-but-unused (Table 3) answers 200 with importance 0.
	getJSON(t, ts, "/v1/importance/lookup_dcookie", http.StatusOK, &res)
	if !res.Known || res.Importance != 0 {
		t.Errorf("importance(lookup_dcookie) = %+v", res)
	}
}

func TestCompletenessAndSuggestEndpoints(t *testing.T) {
	api, _ := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	var wc service.CompletenessResult
	postJSON(t, ts, "/v1/completeness",
		map[string]any{"syscalls": []string{"read", "write", "openat"}},
		http.StatusOK, &wc)
	if wc.Syscalls != 3 || wc.Completeness < 0 || wc.Completeness > 1 {
		t.Errorf("completeness = %+v", wc)
	}

	var sg service.SuggestResult
	postJSON(t, ts, "/v1/suggest",
		map[string]any{"supported": []string{"read", "write"}, "k": 4},
		http.StatusOK, &sg)
	if len(sg.Suggestions) != 4 {
		t.Errorf("suggestions = %+v", sg)
	}

	// Malformed JSON is a 400, not a hang or a 500.
	resp, err := ts.Client().Post(ts.URL+"/v1/completeness", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON = %d, want 400", resp.StatusCode)
	}
}

func TestPathFootprintSeccompEndpoints(t *testing.T) {
	api, svc := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	var path service.GreedyPrefixResult
	getJSON(t, ts, "/v1/path?n=12", http.StatusOK, &path)
	if path.N != 12 || len(path.Curve) != 12 {
		t.Errorf("path = %d/%d points", path.N, len(path.Curve))
	}
	getJSON(t, ts, "/v1/path?n=bogus", http.StatusBadRequest, nil)

	var pkg string
	for _, p := range svc.Snapshot().Study.Packages() {
		enc, err := svc.FootprintBytes(-1, p)
		if err != nil {
			continue
		}
		var fp service.FootprintResult
		if err := json.Unmarshal(enc.Body, &fp); err == nil && len(fp.Syscalls) > 0 {
			pkg = p
			break
		}
	}
	if pkg == "" {
		t.Fatal("no package with footprint")
	}

	var fp service.FootprintResult
	getJSON(t, ts, "/v1/footprint/"+pkg, http.StatusOK, &fp)
	if fp.Package != pkg || len(fp.Syscalls) == 0 {
		t.Errorf("footprint = %+v", fp)
	}
	getJSON(t, ts, "/v1/footprint/definitely-not-a-package", http.StatusNotFound, nil)

	var sec service.SeccompResult
	getJSON(t, ts, "/v1/seccomp/"+pkg+"?deny=kill", http.StatusOK, &sec)
	if sec.Instructions == 0 || !strings.Contains(sec.Listing, "ret") {
		t.Errorf("seccomp = %+v", sec)
	}
	getJSON(t, ts, "/v1/seccomp/"+pkg+"?deny=bogus", http.StatusBadRequest, nil)
	getJSON(t, ts, "/v1/seccomp/definitely-not-a-package", http.StatusNotFound, nil)
}

func TestAnalyzeEndpoint(t *testing.T) {
	api, svc := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	var elf []byte
	repo := svc.Snapshot().Study.Core().Corpus.Repo
	for _, name := range repo.Names() {
		for _, f := range repo.Get(name).Files {
			if len(f.Data) > 4 && string(f.Data[:4]) == "\x7fELF" {
				elf = f.Data
				break
			}
		}
		if elf != nil {
			break
		}
	}
	if elf == nil {
		t.Fatal("no ELF in corpus")
	}

	resp, err := ts.Client().Post(ts.URL+"/v1/analyze?name=probe.bin",
		"application/octet-stream", bytes.NewReader(elf))
	if err != nil {
		t.Fatal(err)
	}
	var res service.AnalyzeResult
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("analyze = %d: %s", resp.StatusCode, raw)
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if res.Sites == 0 && len(res.Syscalls) == 0 {
		t.Errorf("analysis empty: %+v", res)
	}

	// Non-ELF upload: 400.
	resp, err = ts.Client().Post(ts.URL+"/v1/analyze",
		"application/octet-stream", strings.NewReader("plain text"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-ELF = %d, want 400", resp.StatusCode)
	}

	// Over the body-size limit: 413.
	resp, err = ts.Client().Post(ts.URL+"/v1/analyze",
		"application/octet-stream", bytes.NewReader(make([]byte, 2<<20)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d, want 413", resp.StatusCode)
	}

	// Empty body: 400.
	resp, err = ts.Client().Post(ts.URL+"/v1/analyze",
		"application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty upload = %d, want 400", resp.StatusCode)
	}
}

func TestCompatSystemsEndpoint(t *testing.T) {
	api, _ := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	var res service.CompatSystemsResult
	getJSON(t, ts, "/v1/compat/systems", http.StatusOK, &res)
	if len(res.Systems) == 0 {
		t.Fatal("no systems")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	api, _ := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	// Generate a deterministic hit and miss so the ratio is visible.
	set := map[string]any{"syscalls": []string{"dup", "dup2", "pipe"}}
	postJSON(t, ts, "/v1/completeness", set, http.StatusOK, nil)
	postJSON(t, ts, "/v1/completeness", set, http.StatusOK, nil)

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"apiserved_requests_total{route=\"POST /v1/completeness\",code=\"200\"}",
		"apiserved_request_duration_seconds_bucket{le=\"+Inf\"}",
		"apiserved_request_duration_seconds_count",
		"apiserved_route_duration_seconds_bucket{route=\"POST /v1/completeness\",le=\"+Inf\"}",
		"apiserved_route_duration_seconds_count{route=\"POST /v1/completeness\"}",
		"apiserved_route_duration_seconds_sum{route=\"POST /v1/completeness\"}",
		"apiserved_admission_enabled 0",
		"apiserved_admission_shed_total{reason=\"queue_full\"} 0",
		"apiserved_cache_hits_total",
		"apiserved_cache_misses_total",
		"apiserved_cache_hit_ratio",
		"apiserved_snapshot_generation",
		"apiserved_analyses_total",
		"apiserved_snapshot_skipped_files",
		"apiserved_fleet_enabled 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The identical second query must have registered as a cache hit,
	// so the exported ratio is strictly positive.
	var hits float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "apiserved_cache_hits_total ") {
			fmt.Sscanf(line, "apiserved_cache_hits_total %f", &hits)
		}
	}
	if hits < 1 {
		t.Errorf("cache hits = %v, want >= 1\nmetrics:\n%s", hits, text)
	}
}

// TestMetricsWithFleet serves /metrics from a fleet-configured service
// and checks the coordinator gauges appear, including per-worker series.
func TestMetricsWithFleet(t *testing.T) {
	study, err := repro.NewStudy(repro.Config{Packages: 40, Installations: 100000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	worker := httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{}))
	defer worker.Close()
	coord := fleet.New(fleet.Config{Workers: []string{worker.URL}})
	svc := service.New(study, "test", service.Config{Fleet: coord})
	ts := httptest.NewServer(New(svc, Options{MaxUploadBytes: 1 << 20, RequestTimeout: time.Minute}))
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"apiserved_fleet_enabled 1",
		"apiserved_fleet_workers 1",
		"apiserved_fleet_workers_healthy 1",
		"apiserved_fleet_jobs_dispatched_total",
		"apiserved_fleet_local_fallback_shards_total",
		fmt.Sprintf("apiserved_fleet_worker_dispatched_total{worker=%q}", worker.URL),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	api, _ := testAPI(t)
	ts := httptest.NewServer(api)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/completeness")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on POST route = %d, want 405", resp.StatusCode)
	}
}
