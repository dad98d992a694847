// Command apiload drives synthesized study traffic at the serving path
// and reports latency against an SLO. The workload comes from the study
// itself (internal/loadgen): package names weighted by popcon installs,
// syscalls weighted by greedy-path rank, a configurable endpoint mix
// over the /v1 query surface. Two drivers are available — closed-loop
// (-workers fixed concurrency) and open-loop (-rps constant arrival
// rate, latency measured from the scheduled arrival, so a stalling
// server cannot hide behind coordinated omission) — plus a ramp mode
// that steps the arrival rate until the p99 target breaks, and a
// ceiling mode that walks a closed-loop worker ladder against an
// in-process server and reports its max sustainable RPS under the SLO.
//
// Usage:
//
//	apiload -target http://127.0.0.1:8080 -mode open -rps 200 -duration 30s
//	apiload -packages 300 -seed 17 -mode closed -workers 16    # in-process server
//	apiload -target http://127.0.0.1:8080 -ramp 50:50:1000 -slo-p99 100
//	apiload -ceiling 1,2,4,8 -packages 60 -slo-p99 200         # in-process throughput ceiling
//
// The JSON reports (-out) are what cmd/benchgate -serving gates in CI.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/corpus"
	"repro/internal/httpapi"
	"repro/internal/loadgen"
	"repro/internal/service"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("apiload: ")
	var (
		target   = flag.String("target", "", "base URL of a running apiserved (empty: serve an in-process study)")
		corpusD  = flag.String("corpus", "", "corpus directory for the workload profile (and the in-process server)")
		packages = flag.Int("packages", 300, "generated corpus size (ignored with -corpus)")
		seed     = flag.Int64("seed", 1504, "generated corpus seed (ignored with -corpus)")

		mode     = flag.String("mode", loadgen.ModeClosed, "driver: closed (fixed concurrency) or open (fixed arrival rate)")
		workers  = flag.Int("workers", 8, "closed-loop concurrency")
		rps      = flag.Float64("rps", 100, "open-loop arrival rate (requests/second)")
		outMax   = flag.Int("outstanding", 512, "open-loop cap on concurrently outstanding requests")
		duration = flag.Duration("duration", 10*time.Second, "measured interval")
		warmup   = flag.Duration("warmup", 2*time.Second, "discarded warmup interval before measurement")
		mixSpec  = flag.String("mix", "", "endpoint mix, e.g. importance=30,footprint=25,completeness=20,suggest=15,analyze=10 (empty: default)")
		loadSeed = flag.Int64("load-seed", 42, "request-stream seed (determinism)")

		ramp   = flag.String("ramp", "", "ramp profile start:step:max in RPS (runs open-loop stages until the SLO breaks)")
		sloP99 = flag.Float64("slo-p99", 100, "ramp pass criterion: stage p99 <= this many ms")

		ceiling = flag.String("ceiling", "", "comma-separated closed-loop worker counts, e.g. 1,2,4,8: measure the in-process max-throughput ceiling of the query read path over one study (ignores -target)")

		outPath = flag.String("out", "", "write the JSON report here (empty: stdout)")
		wait    = flag.Duration("wait-healthy", 10*time.Second, "poll -target /healthz up to this long before driving load")

		fetch     = flag.String("fetch", "", "one-shot: wait for -target /healthz, request this path, print the raw body, exit (non-2xx exits 1)")
		fetchBody = flag.String("fetch-body", "", "JSON body for -fetch (switches the request from GET to POST)")

		inflight  = flag.Int("max-inflight", 64, "in-process server: max concurrently served requests")
		queue     = flag.Int("max-queue", 128, "in-process server: max queued requests")
		queueWait = flag.Duration("queue-wait", time.Second, "in-process server: max queue wait")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		log.Fatal(err)
	}

	if *fetch != "" {
		if *target == "" {
			log.Fatal("-fetch requires -target")
		}
		// -wait-healthy 0 skips the probe: auxiliary listeners (the
		// pprof server, say) have no /healthz to answer.
		if *wait > 0 {
			if err := waitHealthy(ctx, *target, *wait); err != nil {
				log.Fatal(err)
			}
		}
		if err := fetchOnce(ctx, *target, *fetch, *fetchBody); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *ceiling != "" {
		rep := runCeiling(ctx, *ceiling, *corpusD, *packages, *seed, *duration, *warmup, mix, *loadSeed, *sloP99)
		writeResult(rep, *outPath)
		return
	}

	var profile *loadgen.Profile
	baseURL := *target
	if baseURL == "" {
		profile, baseURL = startInProcess(ctx, *corpusD, *packages, *seed, *inflight, *queue, *queueWait)
	} else {
		if err := waitHealthy(ctx, baseURL, *wait); err != nil {
			log.Fatal(err)
		}
		profile, err = liveProfile(*corpusD, *packages, *seed, baseURL)
		if err != nil {
			log.Fatal(err)
		}
	}

	opts := loadgen.Options{
		BaseURL:        baseURL,
		Mode:           *mode,
		Workers:        *workers,
		RPS:            *rps,
		OutstandingMax: *outMax,
		Duration:       *duration,
		Warmup:         *warmup,
		Mix:            mix,
		Seed:           *loadSeed,
	}

	var result any
	if *ramp != "" {
		var start, step, max float64
		if _, err := fmt.Sscanf(*ramp, "%g:%g:%g", &start, &step, &max); err != nil {
			log.Fatalf("bad -ramp %q (want start:step:max): %v", *ramp, err)
		}
		log.Printf("ramping %s from %g to %g RPS by %g (SLO p99 %.0fms, %s per stage)",
			baseURL, start, max, step, *sloP99, *duration)
		rr, err := loadgen.Ramp(ctx, profile, opts, start, step, max, *sloP99)
		if err != nil {
			log.Fatal(err)
		}
		for _, st := range rr.Stages {
			verdict := "PASS"
			if !st.Pass {
				verdict = "FAIL"
			}
			log.Printf("  %6.0f rps: p99 %7.1fms shed %d 5xx %d  %s",
				st.RPS, st.Report.Overall.P99Ms, st.Report.Shed429, st.Report.HTTP5xx, verdict)
		}
		log.Printf("max passing rate: %g RPS", rr.MaxPassingRPS)
		result = rr
	} else {
		log.Printf("driving %s: %s mode, %s + %s warmup", baseURL, *mode, *duration, *warmup)
		rep, err := loadgen.Run(ctx, profile, opts)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("%.0f rps achieved — overall p50 %.1fms p90 %.1fms p99 %.1fms; accepted p99 %.1fms; %d shed, %d 5xx",
			rep.AchievedRPS, rep.Overall.P50Ms, rep.Overall.P90Ms, rep.Overall.P99Ms,
			rep.Accepted.P99Ms, rep.Shed429, rep.HTTP5xx)
		for _, name := range rep.SortedEndpoints() {
			ep := rep.Endpoints[name]
			log.Printf("  %-12s %6d reqs  p50 %7.1fms  p99 %7.1fms", name, ep.Requests, ep.P50Ms, ep.P99Ms)
		}
		result = rep
	}

	writeResult(result, *outPath)
}

// writeResult emits the JSON report to outPath or stdout.
func writeResult(result any, outPath string) {
	raw, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if outPath == "" {
		os.Stdout.Write(raw)
	} else if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		log.Fatal(err)
	}
}

// runCeiling measures the serving stack's maximum sustainable
// throughput over one resident study. The driver dispatches straight
// into the API's handler (no sockets), so the measurement is the read
// path and its middleware, not kernel networking.
func runCeiling(ctx context.Context, spec, corpusDir string, packages int, seed int64,
	duration, warmup time.Duration, mix loadgen.Mix, loadSeed int64, sloP99 float64) *loadgen.CeilingReport {
	var workersSeq []int
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		w, err := strconv.Atoi(part)
		if err != nil || w <= 0 {
			log.Fatalf("bad -ceiling %q (want comma-separated worker counts)", spec)
		}
		workersSeq = append(workersSeq, w)
	}
	if len(workersSeq) == 0 {
		log.Fatalf("bad -ceiling %q (want comma-separated worker counts)", spec)
	}
	if len(mix) == 0 {
		// Read-only mix: the ceiling is about the query read path, so
		// keep upload analysis (far more expensive) out of the stream.
		mix = loadgen.Mix{
			loadgen.EpImportance:   30,
			loadgen.EpFootprint:    25,
			loadgen.EpCompleteness: 20,
			loadgen.EpSuggest:      15,
			loadgen.EpPath:         10,
		}
	}

	study := buildStudy(corpusDir, packages, seed)
	profile, err := loadgen.FromStudy(study)
	if err != nil {
		log.Fatal(err)
	}
	svc := service.New(study, "ceiling", service.Config{})
	api := httpapi.New(svc, httpapi.Options{RequestTimeout: time.Minute})
	log.Printf("ceiling: workers %v, %s + %s warmup per stage", workersSeq, duration, warmup)
	rep, err := loadgen.Ceiling(ctx, profile, loadgen.Options{
		Handler:  api,
		Duration: duration,
		Warmup:   warmup,
		Mix:      mix,
		Seed:     loadSeed,
	}, workersSeq, sloP99)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("max RPS under %.0fms p99: %.0f (workers %d)", sloP99, rep.MaxRPSUnderSLO, rep.BestWorkers)
	return rep
}

// buildStudy loads or generates the study the in-process modes serve.
func buildStudy(corpusDir string, packages int, seed int64) *repro.Study {
	var (
		study *repro.Study
		err   error
	)
	start := time.Now()
	if corpusDir != "" {
		log.Printf("analyzing corpus %s ...", corpusDir)
		study, err = repro.LoadStudy(corpusDir)
	} else {
		cfg := repro.DefaultConfig()
		cfg.Packages = packages
		cfg.Seed = seed
		log.Printf("generating and analyzing corpus (%d packages, seed %d) ...", packages, seed)
		study, err = repro.NewStudy(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("in-process study ready in %s", time.Since(start).Round(time.Millisecond))
	return study
}

// startInProcess analyzes a study and serves it on a loopback port, so
// apiload can answer SLO questions without a separately started server.
func startInProcess(ctx context.Context, corpusDir string, packages int, seed int64, inflight, queue int, queueWait time.Duration) (*loadgen.Profile, string) {
	source := "generated"
	if corpusDir != "" {
		source = corpusDir
	}
	study := buildStudy(corpusDir, packages, seed)
	profile, err := loadgen.FromStudy(study)
	if err != nil {
		log.Fatal(err)
	}

	svc := service.New(study, source, service.Config{})
	api := httpapi.New(svc, httpapi.Options{
		MaxInFlight: inflight,
		MaxQueue:    queue,
		QueueWait:   queueWait,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := httpapi.Serve(ctx, ln, api, 5*time.Second, nil); err != nil {
			log.Printf("in-process server: %v", err)
		}
	}()
	return profile, "http://" + ln.Addr().String()
}

// liveProfile builds the workload profile for a running server: package
// weights from a local corpus (loaded or regenerated — generation is
// deterministic and cheap, no analysis runs), syscall order from the
// server's own greedy path so the synthesized stream matches what the
// target is actually serving.
func liveProfile(corpusDir string, packages int, seed int64, baseURL string) (*loadgen.Profile, error) {
	var (
		c   *corpus.Corpus
		err error
	)
	if corpusDir != "" {
		c, err = corpus.Load(corpusDir)
	} else {
		cfg := repro.DefaultConfig()
		cfg.Packages = packages
		cfg.Seed = seed
		c, err = corpus.Generate(cfg)
	}
	if err != nil {
		return nil, err
	}
	order, err := fetchGreedyOrder(baseURL)
	if err != nil {
		log.Printf("no greedy path from target (%v); using static syscall order", err)
		order = nil
	}
	return loadgen.FromCorpus(c, order)
}

// fetchGreedyOrder asks the target for its full greedy path ordering.
func fetchGreedyOrder(baseURL string) ([]string, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(baseURL + "/v1/path")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/path: %s", resp.Status)
	}
	var res struct {
		Syscalls []string `json:"syscalls"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, err
	}
	if len(res.Syscalls) == 0 {
		return nil, fmt.Errorf("GET /v1/path: empty path")
	}
	return res.Syscalls, nil
}

// fetchOnce performs the -fetch one-shot request and prints the raw
// response body to stdout, so smoke scripts can capture endpoint
// answers for byte-for-byte comparison without depending on curl.
func fetchOnce(ctx context.Context, baseURL, path, body string) error {
	method, rdr := http.MethodGet, io.Reader(nil)
	if body != "" {
		method, rdr = http.MethodPost, strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, baseURL+path, rdr)
	if err != nil {
		return err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	os.Stdout.Write(raw)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return nil
}

// waitHealthy polls /healthz until the target answers 200 or the
// budget runs out, so scripts can start apiserved and apiload together.
func waitHealthy(ctx context.Context, baseURL string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("target %s not healthy within %s", baseURL, budget)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
