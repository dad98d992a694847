package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/anacache"
	"repro/internal/evolution"
	"repro/internal/fleet"
	"repro/internal/footprint"
	"repro/internal/jobs"
	"repro/internal/proxy"
	"repro/internal/service"
)

// The /metrics pages of the three serving programs, scraped once per
// test binary after one fixed request script (see scrapeStack).
var (
	stackOnce  sync.Once
	stackPages map[string]string // program name -> page
	stackURLs  *strings.Replacer // quoted server URL -> stable placeholder
	stackErr   error
)

func stackMetrics(t *testing.T) (map[string]string, *strings.Replacer) {
	t.Helper()
	_, reference := trendsAPI(t) // the shared release series
	stackOnce.Do(func() {
		stackPages, stackURLs, stackErr = scrapeStack(reference.Series())
	})
	if stackErr != nil {
		t.Fatal(stackErr)
	}
	return stackPages, stackURLs
}

// scrapeStack stands up every subsystem that exports metrics — an
// apiserved with jobs, an analysis cache, a two-worker fleet (each
// worker with its own cache), a snapshot manager, a release series, a
// built stub-plan matrix and admission control; an apiproxy over two
// replicas — drives one fixed request script through it and returns
// the apiserved, apiworker and apiproxy pages.
func scrapeStack(series *evolution.Series) (map[string]string, *strings.Replacer, error) {
	tmp, err := os.MkdirTemp("", "httpapi-metrics-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	sub := func(name string) string { return filepath.Join(tmp, name) }

	var workers [2]*httptest.Server
	for i := range workers {
		wc, err := anacache.Open(sub(fmt.Sprintf("worker-%d", i+1)), footprint.Options{})
		if err != nil {
			return nil, nil, err
		}
		workers[i] = httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{Cache: wc}))
		defer workers[i].Close()
	}
	coord := fleet.New(fleet.Config{
		Workers:      []string{workers[0].URL, workers[1].URL},
		RetryBackoff: 5 * time.Millisecond,
	})

	corpusDir := sub("corpus")
	study, err := repro.NewStudy(repro.Config{Packages: 16, Installations: 200000, Seed: 41})
	if err != nil {
		return nil, nil, err
	}
	if err := study.SaveCorpus(corpusDir); err != nil {
		return nil, nil, err
	}
	cache, err := repro.OpenAnalysisCache(sub("anacache"))
	if err != nil {
		return nil, nil, err
	}
	svc := service.New(study, corpusDir, service.Config{Cache: cache, Fleet: coord})
	if _, err := svc.Reload(corpusDir); err != nil { // analyzed through the fleet
		return nil, nil, err
	}
	svc.InstallSeries(series, time.Second)
	mgr, err := service.NewSnapshotManager(svc, sub("snapshots"))
	if err != nil {
		return nil, nil, err
	}
	jm := jobs.New(jobs.Config{Workers: 1, RetryBase: time.Millisecond})
	if err := service.RegisterExecutors(jm, svc); err != nil {
		return nil, nil, err
	}
	if err := jm.Start(); err != nil {
		return nil, nil, err
	}
	defer jm.Close()
	served := httptest.NewServer(New(svc, Options{
		RequestTimeout: time.Minute,
		MaxInFlight:    8,
		MaxQueue:       8,
		Jobs:           jm,
		Snapshots:      mgr,
	}))
	defer served.Close()
	replica := httptest.NewServer(New(service.New(study, "replica", service.Config{}),
		Options{RequestTimeout: time.Minute}))
	defer replica.Close()
	front := httptest.NewServer(proxy.New(proxy.Config{Replicas: []string{served.URL, replica.URL}}))
	defer front.Close()

	do := func(base, method, path, body string, want int) ([]byte, error) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != want {
			return nil, fmt.Errorf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, want, raw)
		}
		return raw, nil
	}
	for _, rq := range []struct {
		method, path, body string
		code               int
	}{
		{"GET", "/healthz", "", 200},
		{"POST", "/v1/completeness", `{"syscalls":["read","write"]}`, 200},
		{"POST", "/v1/completeness", `{"syscalls":["read","write"]}`, 200},
		{"POST", "/v1/suggest", `{"supported":["read"],"k":3}`, 200},
		{"GET", "/v1/importance/read", "", 200},
		{"GET", "/v1/importance/no_such_call", "", 404},
		{"GET", "/v1/path?n=5", "", 200},
		{"GET", "/v1/compat/systems", "", 200},
		{"GET", "/v1/compat/plan?system=graphene", "", 200},
		{"GET", "/v1/trends/importance?top=5", "", 200},
		{"GET", "/v1/trends/completeness", "", 200},
		{"GET", "/v1/trends/path", "", 200},
		{"GET", "/v1/snapshot", "", 200},
		{"POST", "/v1/snapshot", "not a snapshot", 400},
		{"GET", "/v1/jobs", "", 200},
	} {
		if _, err := do(served.URL, rq.method, rq.path, rq.body, rq.code); err != nil {
			return nil, nil, err
		}
	}
	raw, err := do(served.URL, "POST", "/v1/jobs/compat-matrix", "{}", http.StatusAccepted)
	if err != nil {
		return nil, nil, err
	}
	var job struct{ ID, State string }
	if err := json.Unmarshal(raw, &job); err != nil {
		return nil, nil, err
	}
	if raw, err = do(served.URL, "GET", "/v1/jobs/"+job.ID+"?wait=30s", "", 200); err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(raw, &job); err != nil || job.State != string(jobs.StateDone) {
		return nil, nil, fmt.Errorf("compat-matrix job ended %q (%v)", job.State, err)
	}

	pages := map[string]string{}
	scrape := func(name, base string) error {
		raw, err := do(base, "GET", "/metrics", "", 200)
		pages[name] = string(raw)
		return err
	}
	if err := scrape("apiserved", served.URL); err != nil {
		return nil, nil, err
	}
	if err := scrape("apiworker", workers[0].URL); err != nil {
		return nil, nil, err
	}
	for _, path := range []string{"/healthz", "/v1/importance/read", "/v1/importance/read"} {
		if _, err := do(front.URL, "GET", path, "", 200); err != nil {
			return nil, nil, err
		}
	}
	if err := scrape("apiproxy", front.URL); err != nil {
		return nil, nil, err
	}
	urls := strings.NewReplacer(
		strconv.Quote(served.URL), `"http://apiserved"`,
		strconv.Quote(replica.URL), `"http://replica-2"`,
		strconv.Quote(workers[0].URL), `"http://worker-1"`,
		strconv.Quote(workers[1].URL), `"http://worker-2"`,
	)
	return pages, urls, nil
}

// expoSample is one parsed sample line.
type expoSample struct {
	series string      // name{labels} exactly as rendered
	name   string      // metric name
	labels [][2]string // label pairs in rendered order
	value  float64
}

// parseSample splits one exposition sample line, unescaping label
// values (\\, \" and \n).
func parseSample(line string) (expoSample, error) {
	var s expoSample
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.name = line[:i]
	if line[i] == '{' {
		i++
		for i < len(line) && line[i] != '}' {
			eq := strings.IndexByte(line[i:], '=')
			if eq <= 0 || i+eq+1 >= len(line) || line[i+eq+1] != '"' {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := line[i : i+eq]
			i += eq + 2
			var val strings.Builder
			for ; i < len(line) && line[i] != '"'; i++ {
				c := line[i]
				if c == '\\' && i+1 < len(line) {
					i++
					switch line[i] {
					case 'n':
						c = '\n'
					case '\\', '"':
						c = line[i]
					default:
						return s, fmt.Errorf("bad escape \\%c in %q", line[i], line)
					}
				}
				val.WriteByte(c)
			}
			if i+1 >= len(line) {
				return s, fmt.Errorf("unterminated label value in %q", line)
			}
			s.labels = append(s.labels, [2]string{key, val.String()})
			i++
			if line[i] == ',' {
				i++
			}
		}
		if i >= len(line) {
			return s, fmt.Errorf("unterminated labels in %q", line)
		}
		i++
	}
	s.series = line[:i]
	if i >= len(line) || line[i] != ' ' {
		return s, fmt.Errorf("no value in %q", line)
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return s, fmt.Errorf("value of %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

// checkExposition lists every way page departs from the text format's
// rules for one family: exactly one HELP and one TYPE line before its
// samples, samples in one contiguous group named after the family
// (plus _bucket/_sum/_count for a histogram), unique family names and
// series, cumulative buckets ending in +Inf equal to _count, and at
// most 64 label sets per family (le aside).
func checkExposition(page string) []string {
	var errs []string
	bad := func(format string, args ...any) { errs = append(errs, fmt.Sprintf(format, args...)) }
	type family struct {
		name, typ   string
		help, types int
		sets        map[string]bool
	}
	type bucketRun struct {
		last  float64
		inf   float64
		count float64
		seen  bool
		infOK bool
	}
	fams := map[string]*family{}
	series := map[string]bool{}
	runs := map[string]*bucketRun{}
	var cur *family
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			name, rest, _ := strings.Cut(line[len("# HELP "):], " ")
			if cur == nil || cur.name != name {
				if fams[name] != nil {
					bad("family %s declared twice (or split)", name)
				}
				cur = &family{name: name, sets: map[string]bool{}}
				fams[name] = cur
			} else if len(cur.sets) > 0 {
				bad("family %s: %s after its samples", name, line[2:6])
			}
			if line[2] == 'H' {
				cur.help++
			} else {
				cur.types++
				cur.typ = rest
			}
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			bad("%v", err)
			continue
		}
		suffix := ""
		if cur != nil && cur.typ == "histogram" {
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if s.name == cur.name+suf {
					suffix = suf
				}
			}
		}
		if cur == nil || s.name != cur.name+suffix {
			above := "none"
			if cur != nil {
				above = cur.name
			}
			bad("sample %s is not in the family above it (%s): missing HELP/TYPE or split family", s.series, above)
			continue
		}
		if series[s.series] {
			bad("series %s written twice", s.series)
		}
		series[s.series] = true
		var set []string
		le := ""
		for _, l := range s.labels {
			if l[0] == "le" {
				le = l[1]
				continue
			}
			set = append(set, l[0]+"="+strconv.Quote(l[1]))
		}
		key := strings.Join(set, ",")
		cur.sets[key] = true
		if cur.typ != "histogram" {
			continue
		}
		run := runs[cur.name+"{"+key+"}"]
		if run == nil {
			run = &bucketRun{}
			runs[cur.name+"{"+key+"}"] = run
		}
		switch suffix {
		case "_bucket":
			if run.seen && s.value < run.last {
				bad("%s: bucket le=%s decreases (%g < %g)", cur.name, le, s.value, run.last)
			}
			run.seen, run.last = true, s.value
			if le == "+Inf" {
				run.infOK, run.inf = true, s.value
			}
		case "_count":
			run.count = s.value
			if !run.infOK || run.inf != run.count {
				bad("%s{%s}: +Inf bucket (%g, present %t) != _count %g", cur.name, key, run.inf, run.infOK, run.count)
			}
		}
	}
	for _, f := range fams {
		if f.help != 1 || f.types != 1 {
			bad("family %s has %d HELP and %d TYPE lines", f.name, f.help, f.types)
		}
		if len(f.sets) > 64 {
			bad("family %s has %d label sets, more than 64", f.name, len(f.sets))
		}
	}
	return errs
}

// TestMetricsConformance checks that the apiserved, apiworker and
// apiproxy pages each follow the text exposition format family by
// family (see checkExposition).
func TestMetricsConformance(t *testing.T) {
	pages, _ := stackMetrics(t)
	for _, prog := range []string{"apiserved", "apiworker", "apiproxy"} {
		for _, e := range checkExposition(pages[prog]) {
			t.Errorf("%s: %s", prog, e)
		}
	}
}

// TestMetricsSeriesGolden pins the series the serving stack exports:
// testdata/metrics_series.txt lists every sample's name{labels} across
// the three pages, sorted, values dropped and server URLs replaced by
// placeholders (-update rewrites it).
func TestMetricsSeriesGolden(t *testing.T) {
	pages, urls := stackMetrics(t)
	var got []string
	for _, page := range pages {
		for _, line := range strings.Split(page, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			s, err := parseSample(line)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, urls.Replace(s.series))
		}
	}
	sort.Strings(got)
	golden := filepath.Join("testdata", "metrics_series.txt")
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := map[string]bool{}
	for _, s := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		want[s] = true
	}
	have := map[string]bool{}
	for _, s := range got {
		have[s] = true
		if !want[s] {
			t.Errorf("series not in %s: %s", golden, s)
		}
	}
	for s := range want {
		if !have[s] {
			t.Errorf("series missing from the pages: %s", s)
		}
	}
	if text != string(raw) {
		t.Errorf("%s differs from the scraped series (order or repeats)", golden)
	}
}
