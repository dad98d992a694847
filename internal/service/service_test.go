package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

var (
	tsOnce         sync.Once
	tsA, tsB       *repro.Study
	tsErr          error
	testStudyConf  = repro.Config{Packages: 150, Installations: 200000, Seed: 21}
	testStudyConf2 = repro.Config{Packages: 150, Installations: 200000, Seed: 22}
)

// testStudies builds (once) two small studies over different corpora, so
// swap tests can tell generations apart.
func testStudies(tb testing.TB) (*repro.Study, *repro.Study) {
	tb.Helper()
	tsOnce.Do(func() {
		tsA, tsErr = repro.NewStudy(testStudyConf)
		if tsErr == nil {
			tsB, tsErr = repro.NewStudy(testStudyConf2)
		}
	})
	if tsErr != nil {
		tb.Fatal(tsErr)
	}
	return tsA, tsB
}

func newTestService(tb testing.TB, cfg Config) *Service {
	a, _ := testStudies(tb)
	return New(a, "test", cfg)
}

// as decodes a byte-path answer into its wire struct, passing the
// query's error through:
//
//	res, err := as[CompletenessResult](svc.CompletenessBytes(-1, names))
func as[T any](enc Encoded, err error) (T, error) {
	var v T
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(enc.Body, &v); err != nil {
		return v, fmt.Errorf("decoding %q: %w", enc.Body, err)
	}
	return v, nil
}

func TestSnapshotBasics(t *testing.T) {
	svc := newTestService(t, Config{})
	snap := svc.Snapshot()
	if snap.Generation != 1 || svc.Generation() != 1 {
		t.Fatalf("generation = %d/%d, want 1", snap.Generation, svc.Generation())
	}
	if snap.Study.Generation() != 1 {
		t.Errorf("study generation = %d, want 1", snap.Study.Generation())
	}
	if snap.Meta.Packages != testStudyConf.Packages {
		t.Errorf("meta packages = %d, want %d", snap.Meta.Packages, testStudyConf.Packages)
	}
	if snap.Meta.Fingerprint == "" {
		t.Error("empty fingerprint")
	}
}

func TestImportanceQuery(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := as[ImportanceResult](svc.ImportanceBytes(-1, "read"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Known || res.Importance < 0.999 {
		t.Errorf("Importance(read) = %+v", res)
	}
	res, err = as[ImportanceResult](svc.ImportanceBytes(-1, "not_a_syscall"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Known || res.Importance != 0 {
		t.Errorf("Importance(not_a_syscall) = %+v", res)
	}
}

func TestCompletenessCacheAccounting(t *testing.T) {
	svc := newTestService(t, Config{})
	names := []string{"read", "write", "openat", "close", "mmap"}

	first, err := as[CompletenessResult](svc.CompletenessBytes(-1, names))
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first query reported cached")
	}
	if first.Syscalls != 5 {
		t.Errorf("syscalls = %d, want 5", first.Syscalls)
	}

	// Same set in different order and with duplicates must hit the cache.
	again, err := as[CompletenessResult](svc.CompletenessBytes(-1, []string{"mmap", "close", "openat", "write", "read", "read"}))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical set did not hit the cache")
	}
	if again.Completeness != first.Completeness {
		t.Errorf("cached completeness %v != %v", again.Completeness, first.Completeness)
	}

	st := svc.Stats()
	if st.ByteCacheHits != 1 || st.ByteCacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", st.ByteCacheHits, st.ByteCacheMisses)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", got)
	}

	// Unknown names are split out, not silently counted.
	res, err := as[CompletenessResult](svc.CompletenessBytes(-1, []string{"read", "not_a_syscall"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Syscalls != 1 || len(res.Unknown) != 1 || res.Unknown[0] != "not_a_syscall" {
		t.Errorf("unknown-name handling: %+v", res)
	}
}

func TestSuggestQuery(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := as[SuggestResult](svc.SuggestBytes(-1, []string{"read", "write"}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Suggestions) != 3 {
		t.Fatalf("suggestions = %d, want 3", len(res.Suggestions))
	}
	prev := 0.0
	for _, sg := range res.Suggestions {
		if sg.Syscall == "read" || sg.Syscall == "write" {
			t.Errorf("suggested already-supported call %q", sg.Syscall)
		}
		if sg.CompletenessAfter < prev {
			t.Errorf("completeness not monotone: %v after %v", sg.CompletenessAfter, prev)
		}
		prev = sg.CompletenessAfter
	}
	again, err := as[SuggestResult](svc.SuggestBytes(-1, []string{"write", "read"}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("reordered supported set did not hit the cache")
	}
}

func TestGreedyPrefix(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := as[GreedyPrefixResult](svc.PathBytes(-1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 10 || len(res.Syscalls) != 10 || len(res.Curve) != 10 {
		t.Fatalf("prefix sizes: %d/%d/%d", res.N, len(res.Syscalls), len(res.Curve))
	}
	for i := 1; i < len(res.Curve); i++ {
		if res.Curve[i].Completeness < res.Curve[i-1].Completeness {
			t.Errorf("curve not monotone at %d", i)
		}
	}
}

func TestFootprintAndSeccomp(t *testing.T) {
	svc := newTestService(t, Config{})
	pkgs := svc.Snapshot().Study.Packages()
	var pkg string
	for _, p := range pkgs {
		if fps, err := as[FootprintResult](svc.FootprintBytes(-1, p)); err == nil && len(fps.Syscalls) > 0 {
			pkg = p
			break
		}
	}
	if pkg == "" {
		t.Fatal("no package with a syscall footprint")
	}

	if _, err := svc.FootprintBytes(-1, "no-such-package"); !errors.Is(err, ErrUnknownPackage) {
		t.Errorf("Footprint(no-such-package) err = %v", err)
	}

	sec, err := as[SeccompResult](svc.SeccompBytes(pkg, "errno"))
	if err != nil {
		t.Fatal(err)
	}
	if sec.Instructions == 0 || !strings.Contains(sec.Listing, "ret") {
		t.Errorf("seccomp program looks empty: %+v", sec)
	}
	if sec.Cached {
		t.Error("first seccomp query reported cached")
	}
	sec2, err := as[SeccompResult](svc.SeccompBytes(pkg, ""))
	if err != nil {
		t.Fatal(err)
	}
	if !sec2.Cached {
		t.Error("default deny action did not reuse the errno cache entry")
	}
	if _, err := svc.SeccompBytes(pkg, "bogus"); err == nil {
		t.Error("bogus deny action accepted")
	}
	if _, err := svc.SeccompBytes("no-such-package", "kill"); !errors.Is(err, ErrUnknownPackage) {
		t.Errorf("Seccomp(no-such-package) err = %v", err)
	}
}

func TestCompatSystems(t *testing.T) {
	svc := newTestService(t, Config{})
	res, err := as[CompatSystemsResult](svc.CompatSystemsBytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) == 0 {
		t.Fatal("no systems evaluated")
	}
	for _, row := range res.Systems {
		if row.Name == "" || row.Completeness < 0 || row.Completeness > 1 {
			t.Errorf("bad row: %+v", row)
		}
	}
	again, err := as[CompatSystemsResult](svc.CompatSystemsBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("second evaluation did not hit the cache")
	}
}

// corpusELF returns one ELF executable's bytes from the study corpus.
func corpusELF(tb testing.TB, study *repro.Study) []byte {
	tb.Helper()
	repo := study.Core().Corpus.Repo
	for _, name := range repo.Names() {
		for _, f := range repo.Get(name).Files {
			if len(f.Data) > 4 && string(f.Data[:4]) == "\x7fELF" {
				return f.Data
			}
		}
	}
	tb.Fatal("no ELF in corpus")
	return nil
}

func TestAnalyzeUpload(t *testing.T) {
	svc := newTestService(t, Config{})
	data := corpusELF(t, svc.Snapshot().Study)
	res, err := svc.Analyze(context.Background(), "upload.bin", data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Syscalls) == 0 && res.Sites == 0 {
		t.Errorf("empty analysis: %+v", res)
	}
	if _, err := svc.Analyze(context.Background(), "junk", []byte("definitely not an ELF")); err == nil {
		t.Error("non-ELF upload accepted")
	}
	st := svc.Stats()
	if st.AnalysesTotal != 2 {
		t.Errorf("analyses total = %d, want 2", st.AnalysesTotal)
	}
}

func TestAnalyzePoolSaturation(t *testing.T) {
	svc := newTestService(t, Config{MaxAnalyses: 1})
	// Occupy the only slot so the next request must wait, then cancel it.
	svc.analyzeSem <- struct{}{}
	defer func() { <-svc.analyzeSem }()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := svc.Analyze(ctx, "blocked", []byte("x"))
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("saturated pool err = %v, want ErrBusy", err)
	}
	if st := svc.Stats(); st.AnalysesRejected != 1 {
		t.Errorf("rejected = %d, want 1", st.AnalysesRejected)
	}
}

// TestConcurrentQueriesDuringSwap is the core serving guarantee: a
// background snapshot swap never tears an in-flight request, and every
// response is internally consistent with exactly one generation.
func TestConcurrentQueriesDuringSwap(t *testing.T) {
	a, b := testStudies(t)
	svc := New(a, "gen-a", Config{})

	const workers = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	names := []string{"read", "write", "openat", "close", "futex", "mmap"}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := as[CompletenessResult](svc.CompletenessBytes(-1, names[:1+(i+w)%len(names)]))
				if err != nil {
					errc <- err
					return
				}
				if res.Generation == 0 {
					errc <- errors.New("zero generation in response")
					return
				}
				if sg, err := as[SuggestResult](svc.SuggestBytes(-1, names[:2], 2)); err != nil {
					errc <- err
					return
				} else if sg.Generation == 0 {
					errc <- errors.New("zero generation in suggestion")
					return
				}
				imp, err := as[ImportanceResult](svc.ImportanceBytes(-1, "read"))
				if err != nil {
					errc <- err
					return
				}
				if imp.Importance < 0.999 {
					errc <- errors.New("importance torn during swap")
					return
				}
			}
		}(w)
	}

	// Swap back and forth while the queries run.
	studies := []*repro.Study{b, a, b, a, b}
	for i, st := range studies {
		time.Sleep(5 * time.Millisecond)
		gen := svc.Swap(st, "swap")
		if want := uint64(i + 2); gen != want {
			t.Errorf("swap %d returned generation %d, want %d", i, gen, want)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	if got := svc.Generation(); got != uint64(len(studies)+1) {
		t.Errorf("final generation = %d, want %d", got, len(studies)+1)
	}
	// After the swaps, fresh queries serve the latest snapshot.
	res, err := as[CompletenessResult](svc.CompletenessBytes(-1, names))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != svc.Generation() {
		t.Errorf("post-swap query generation %d != %d", res.Generation, svc.Generation())
	}
}

// TestConcurrentReloadAndQuery drives cache-backed Reloads — the
// background path WatchCorpus takes — while query workers hammer the
// snapshot, proving the incremental swap is race-clean under -race: a
// reload in flight never tears a response, and every response carries a
// valid generation.
func TestConcurrentReloadAndQuery(t *testing.T) {
	dir := t.TempDir()
	small, err := repro.NewStudy(repro.Config{Packages: 60, Installations: 100000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.SaveCorpus(dir); err != nil {
		t.Fatal(err)
	}
	cache, err := repro.OpenAnalysisCache(filepath.Join(t.TempDir(), "anacache"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadStudyCached(dir, cache)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(loaded, dir, Config{Cache: cache})

	const workers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := as[CompletenessResult](svc.CompletenessBytes(-1, []string{"read", "write"}))
				if err != nil {
					errc <- err
					return
				}
				if res.Generation == 0 {
					errc <- errors.New("zero generation in response")
					return
				}
				if st := svc.Stats(); st.Generation == 0 {
					errc <- errors.New("zero generation in stats")
					return
				}
			}
		}()
	}

	const reloads = 4
	for i := 0; i < reloads; i++ {
		gen, err := svc.Reload(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 2); gen != want {
			t.Errorf("reload %d returned generation %d, want %d", i, gen, want)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	st := svc.Stats()
	if st.Reloads != reloads {
		t.Errorf("reloads = %d, want %d", st.Reloads, reloads)
	}
	cs := cache.Stats()
	if cs.Hits == 0 {
		t.Errorf("cache-backed reloads reported no hits: %+v", cs)
	}
	// Every binary after the first load came from the cache: the reloads
	// recomputed only the aggregation.
	if cs.Misses != cs.Writes || cs.Hits < cs.Misses {
		t.Errorf("unexpected cache counters across reloads: %+v", cs)
	}
}

func TestWatchCorpusSwapsOnChange(t *testing.T) {
	if testing.Short() {
		t.Skip("re-analysis loop in -short mode")
	}
	dir := t.TempDir()
	small, err := repro.NewStudy(repro.Config{Packages: 60, Installations: 100000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.SaveCorpus(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := repro.LoadStudy(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(loaded, dir, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		svc.WatchCorpus(ctx, dir, 10*time.Millisecond, t.Logf)
	}()

	// Touch the survey file until the watcher reloads: appending blank
	// lines moves the corpus signature without changing the parsed
	// survey. Repeating the touch makes the test immune to the watcher
	// capturing its baseline signature before or after the first write.
	path := filepath.Join(dir, "by_inst")
	deadline := time.After(60 * time.Second)
	for svc.Generation() < 2 {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatal("watcher never swapped after corpus change")
		case <-time.After(50 * time.Millisecond):
		}
	}
	cancel()
	<-done
}
