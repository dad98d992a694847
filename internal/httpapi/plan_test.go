package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/service"
)

// planServers builds two fresh servers over the same small study,
// sharing one persistent verdict cache: the server queried first pays
// the cold emulator-driven matrix build, the other replays every
// verdict from the cache — the property the warm-path metrics
// assertions pin down.
func planServers(t *testing.T) (cold, warm *httptest.Server) {
	t.Helper()
	cache, err := repro.OpenAnalysisCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	study, err := repro.NewStudyCached(repro.Config{Packages: 16, Installations: 200000, Seed: 41}, cache)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *httptest.Server {
		svc := service.New(study, "plan-equivalence", service.Config{Cache: cache})
		ts := httptest.NewServer(New(svc, Options{RequestTimeout: time.Minute}))
		t.Cleanup(ts.Close)
		return ts
	}
	return mk(), mk()
}

// TestPlanBytesMatchLegacy replays /v1/compat/plan against its golden
// responses (see TestByteHandlersMatchLegacy for their provenance):
// errors, the cold and warm answer of the system whose query builds the
// verdict matrix, and the other systems, which that build published to
// the hotset — warm from their first request.
func TestPlanBytesMatchLegacy(t *testing.T) {
	ts, _ := planServers(t)
	tr := &transcript{t: t, ts: ts}
	for _, path := range []string{
		"/v1/compat/plan",                         // missing system: 400
		"/v1/compat/plan?system=z-os",             // unknown system: 404
		"/v1/compat/plan?system=graphene%2Bsched", // builds the matrix
	} {
		tr.do("cold", "GET", path, "")
		tr.do("warm", "GET", path, "")
	}
	for _, sys := range []string{"user-mode-linux", "l4linux", "freebsd-emu", "graphene"} {
		path := "/v1/compat/plan?system=" + sys
		tr.do("first", "GET", path, "")
		tr.do("second", "GET", path, "")
	}
	checkGolden(t, "plan_golden.txt", tr.buf.Bytes())
}

// TestPlanETagAndWarmMetrics pins the conditional-request behavior of
// the plan route and the stubplan counters: the server that builds the
// matrix cold reports emulator runs, the warm one reports zero — every
// verdict came from the shared persistent cache.
func TestPlanETagAndWarmMetrics(t *testing.T) {
	cold, warm := planServers(t)

	// Cold build on the first server.
	if code, body := fetch(t, cold, "GET", "/v1/compat/plan?system=graphene", ""); code != http.StatusOK {
		t.Fatalf("cold plan = %d %s", code, body)
	}
	_, coldMetrics := fetch(t, cold, "GET", "/metrics", "")
	emuLine := regexp.MustCompile(`apiserved_stubplan_emulations_total (\d+)`).FindStringSubmatch(string(coldMetrics))
	if emuLine == nil {
		t.Fatal("no apiserved_stubplan_emulations_total in cold metrics")
	}
	if n, _ := strconv.Atoi(emuLine[1]); n == 0 {
		t.Error("cold matrix build reported zero emulations")
	}

	resp, err := warm.Client().Get(warm.URL + "/v1/compat/plan?system=graphene")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" || len(body) == 0 {
		t.Fatalf("plan response = %d, ETag %q, %d bytes", resp.StatusCode, etag, len(body))
	}

	req, _ := http.NewRequest("GET", warm.URL+"/v1/compat/plan?system=graphene", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = warm.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(raw) != 0 {
		t.Errorf("If-None-Match replay = %d with %d bytes, want 304 empty", resp.StatusCode, len(raw))
	}

	_, warmMetrics := fetch(t, warm, "GET", "/metrics", "")
	text := string(warmMetrics)
	for _, want := range []string{
		"apiserved_stubplan_enabled 1",
		"apiserved_stubplan_matrix_builds_total 1",
		"apiserved_stubplan_emulations_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("warm metrics missing %q", want)
		}
	}
	if strings.Contains(text, `apiserved_stubplan_verdict_cache_total{outcome="hit"} 0`) {
		t.Error("warm matrix build recorded zero verdict-cache hits")
	}
	if !strings.Contains(text, "apiserved_stubplan_plan_queries_total") {
		t.Error("warm metrics missing plan query counter")
	}
}
