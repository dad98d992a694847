package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/corpus"
	"repro/internal/httpapi"
	"repro/internal/service"
)

// Input sizes. The study corpus carries CodeBulk filler so its binaries
// have realistic .text volume and a cold study spends its time in
// decode, call graph and extraction, as the paper's analysis did. The
// plan corpus asks for few packages because every executable is re-run in
// the emulator once per observed system call; the generator emits its 48
// named packages whatever the count.
const (
	studyPackages = 150
	codeBulk      = 24 << 10
	installations = 1 << 20
	planPackages  = 10
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// warmRequests is the loopback burst that ends set-up.
	warmRequests = 300
)

// env is one set-up: the saved corpus with its populated analysis cache,
// the snapshot file, the serving stack on a loopback listener, the plan
// corpus with its populated analysis cache, and the request stream.
type env struct {
	corpusDir, cacheDir, snapFile string
	study                         *repro.Study
	svc                           *service.Service
	api                           *httpapi.API
	base                          string
	client                        *http.Client
	stop                          context.CancelFunc
	served                        chan error

	planCorpus   *corpus.Corpus
	planCacheDir string

	stream *stream
}

// setupPhase sets up setupReps times and keeps the last set-up. Each
// set-up does the same work from the same seed, so their median is the
// run's setup_s.
func (b *bench) setupPhase() (*env, error) {
	var times []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
			os.RemoveAll(filepath.Dir(e.corpusDir))
		}
		runtime.GC()
		b.calibrate()
		// Flushing the file system first keeps the write-back of the last
		// set-up's (or the last run's) deleted files out of this one's time.
		syscall.Sync()
		start := time.Now()
		var err error
		if e, err = b.setup(filepath.Join(b.dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	b.e2e["setup_s"] = median(times)
	return e, nil
}

// setup generates and saves the study corpus, analyzes it through a
// fresh analysis cache (which the warm study later reads), writes the
// snapshot a replica restores, starts the server, prepares the plan
// corpus, and warms the server up.
func (b *bench) setup(dir string) (e *env, err error) {
	e = &env{
		corpusDir:    filepath.Join(dir, "corpus"),
		cacheDir:     filepath.Join(dir, "anacache"),
		snapFile:     filepath.Join(dir, "study.snap"),
		planCacheDir: filepath.Join(dir, "plan-anacache"),
	}
	c, err := corpus.Generate(corpus.Config{
		Packages: studyPackages, Installations: installations, Seed: b.seed, CodeBulk: codeBulk,
	})
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	if err := c.Save(e.corpusDir); err != nil {
		return nil, fmt.Errorf("saving corpus: %w", err)
	}
	cache, err := repro.OpenAnalysisCache(e.cacheDir)
	if err != nil {
		return nil, err
	}
	if e.study, err = repro.LoadStudyCached(e.corpusDir, cache); err != nil {
		return nil, err
	}
	if err := e.study.WriteSnapshot(e.snapFile, 1); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}

	e.svc = service.New(e.study, e.corpusDir, service.DefaultConfig())
	e.api = httpapi.New(e.svc, httpapi.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.stop, e.served = cancel, make(chan error, 1)
	go func() { e.served <- httpapi.Serve(ctx, ln, e.api, 5*time.Second, nil) }()
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.base = "http://" + ln.Addr().String()
	e.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxOutstanding,
			MaxIdleConnsPerHost: maxOutstanding,
			DisableCompression:  true,
		},
	}

	if e.planCorpus, err = corpus.Generate(corpus.Config{
		Packages: planPackages, Installations: installations, Seed: b.seed,
	}); err != nil {
		return nil, fmt.Errorf("generating plan corpus: %w", err)
	}
	planCache, err := repro.OpenAnalysisCache(e.planCacheDir)
	if err != nil {
		return nil, err
	}
	if _, err := repro.NewStudyOverCorpus(e.planCorpus, planCache, nil); err != nil {
		return nil, err
	}

	e.stream = newStream(b.seed, b.wl.churn, newProfile(e.study, c))
	if err := e.warm(b.wl.churn); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// warm leaves the server as a steady state would: for the hot mix every
// key its stream can draw is answered once through the service, then a
// short loopback burst warms the connections. The churn mix gets only
// the burst, since its keys are new by design.
func (e *env) warm(churn bool) error {
	if !churn {
		for _, r := range e.stream.keySpace() {
			if _, _, err := e.direct(r); err != nil {
				return err
			}
		}
	}
	for _, r := range e.stream.take(warmRequests) {
		code, _, err := e.roundTrip(r)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("%s %s: status %d", r.method, r.path, code)
		}
	}
	return nil
}

// close stops the server, waits for it to drain, and drops idle
// connections.
func (e *env) close() {
	if e.stop != nil {
		e.stop()
		<-e.served
		e.stop = nil
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}
