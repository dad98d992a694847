package service

import (
	"errors"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/evolution"
	"repro/internal/jobs"
)

var (
	seriesOnce sync.Once
	seriesVal  *evolution.Series
	seriesDir  string
	seriesErr  error
)

// testSeries builds (once) a small 3-generation series for trend tests.
func testSeries(tb testing.TB) *evolution.Series {
	tb.Helper()
	seriesOnce.Do(func() {
		dir, err := os.MkdirTemp("", "service-series-*")
		if err != nil {
			seriesErr = err
			return
		}
		seriesDir = dir
		seriesVal, seriesErr = evolution.Build(evolution.Config{
			Series: corpus.SeriesConfig{
				Base:        corpus.Config{Packages: 80, Installations: 100000, Seed: 7},
				Generations: 3,
				Births:      2,
				Deaths:      1,
				Drifts:      3,
				Rewires:     2,
				PopconShift: 0.3,
			},
			Dir: dir,
		})
	})
	if seriesErr != nil {
		tb.Fatal(seriesErr)
	}
	return seriesVal
}

func newSeriesService(t *testing.T) *Service {
	svc := newTestService(t, Config{})
	svc.InstallSeries(testSeries(t), 1500*time.Millisecond)
	return svc
}

func TestTrendsRequireSeries(t *testing.T) {
	svc := newTestService(t, Config{})
	if _, err := svc.TrendImportanceBytes("", 0); !errors.Is(err, ErrNoSeries) {
		t.Errorf("TrendImportance without series: %v, want ErrNoSeries", err)
	}
	if _, err := svc.TrendCompletenessBytes(""); !errors.Is(err, ErrNoSeries) {
		t.Errorf("TrendCompleteness without series: %v, want ErrNoSeries", err)
	}
	if _, err := svc.TrendPathBytes("", 0); !errors.Is(err, ErrNoSeries) {
		t.Errorf("TrendPath without series: %v, want ErrNoSeries", err)
	}
	if _, err := svc.ImportanceBytes(0, "open"); !errors.Is(err, ErrNoSeries) {
		t.Errorf("Importance at a generation without series: %v, want ErrNoSeries", err)
	}
}

func TestTrendQueries(t *testing.T) {
	svc := newSeriesService(t)
	series := svc.Series()
	n := series.Generations()

	imp, err := as[TrendImportanceResult](svc.TrendImportanceBytes("open", 0))
	if err != nil {
		t.Fatal(err)
	}
	if imp.Generations != n || len(imp.Trends) == 0 {
		t.Fatalf("TrendImportance(open) = %+v", imp)
	}
	for _, tr := range imp.Trends {
		if tr.API != "open" || len(tr.Importance) != n {
			t.Errorf("unexpected trend row %+v", tr)
		}
	}

	top, err := as[TrendImportanceResult](svc.TrendImportanceBytes("", 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Trends) != 5 {
		t.Fatalf("top trends = %d rows, want 5", len(top.Trends))
	}
	for i := 1; i < len(top.Trends); i++ {
		if math.Abs(top.Trends[i].Drift) > math.Abs(top.Trends[i-1].Drift) {
			t.Errorf("top drifts not sorted: %v then %v", top.Trends[i-1].Drift, top.Trends[i].Drift)
		}
	}

	comp, err := as[TrendCompletenessResult](svc.TrendCompletenessBytes(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Targets) != len(series.Trends.Completeness) {
		t.Fatalf("completeness targets = %d, want %d", len(comp.Targets), len(series.Trends.Completeness))
	}
	one, err := as[TrendCompletenessResult](svc.TrendCompletenessBytes("graphene"))
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Targets) == 0 || len(one.Targets) >= len(comp.Targets) {
		t.Errorf("filtered completeness = %d targets (of %d)", len(one.Targets), len(comp.Targets))
	}

	path, err := as[TrendPathResult](svc.TrendPathBytes("", 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(path.Trends) == 0 || path.PathHead != series.Trends.PathHead {
		t.Fatalf("TrendPath = %+v", path)
	}
	if _, err := svc.TrendPathBytes("sideways", 0); err == nil {
		t.Error("TrendPath accepted bogus direction")
	}
	limited, err := as[TrendPathResult](svc.TrendPathBytes("", 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.Trends) != 3 {
		t.Errorf("limited path trends = %d, want 3", len(limited.Trends))
	}

	st := svc.Stats()
	if !st.EvolutionOn || st.EvolutionGenerations != n || st.SeriesInstalls != 1 {
		t.Errorf("stats evolution block = on=%v gens=%d installs=%d",
			st.EvolutionOn, st.EvolutionGenerations, st.SeriesInstalls)
	}
	if st.TrendImportanceQueries != 2 || st.TrendCompletenessQueries != 2 || st.TrendPathQueries != 2 {
		t.Errorf("trend query counters = %d/%d/%d",
			st.TrendImportanceQueries, st.TrendCompletenessQueries, st.TrendPathQueries)
	}
	if st.SeriesBuildSeconds != 1.5 {
		t.Errorf("series build seconds = %v, want 1.5", st.SeriesBuildSeconds)
	}
}

// TestGenerationSelector retargets the ordinary query methods at series
// generations and cross-checks against the per-generation studies.
func TestGenerationSelector(t *testing.T) {
	svc := newSeriesService(t)
	series := svc.Series()

	for gen := 0; gen < series.Generations(); gen++ {
		study := series.Study(gen)
		res, err := as[ImportanceResult](svc.ImportanceBytes(gen, "open"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Generation != uint64(gen) || res.Importance != study.Importance("open") {
			t.Errorf("gen %d importance = %+v, study says %v", gen, res, study.Importance("open"))
		}

		prefix, err := as[GreedyPrefixResult](svc.PathBytes(gen, 5))
		if err != nil {
			t.Fatal(err)
		}
		want := study.GreedyPath()
		if len(prefix.Syscalls) != 5 || prefix.Syscalls[0] != want[0].API.Name {
			t.Errorf("gen %d prefix = %v", gen, prefix.Syscalls)
		}

		comp, err := as[CompletenessResult](svc.CompletenessBytes(gen, prefix.Syscalls))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := comp.Completeness, study.WeightedCompleteness(prefix.Syscalls); got != want {
			t.Errorf("gen %d completeness = %v, study says %v", gen, got, want)
		}

		sug, err := as[SuggestResult](svc.SuggestBytes(gen, prefix.Syscalls, 3))
		if err != nil {
			t.Fatal(err)
		}
		if len(sug.Suggestions) != 3 {
			t.Errorf("gen %d suggestions = %d, want 3", gen, len(sug.Suggestions))
		}

		pkg := study.Packages()[0]
		fp, err := as[FootprintResult](svc.FootprintBytes(gen, pkg))
		if err != nil {
			t.Fatal(err)
		}
		if fp.Package != pkg {
			t.Errorf("gen %d footprint package = %q", gen, fp.Package)
		}
	}

	if _, err := svc.ImportanceBytes(99, "open"); !errors.Is(err, ErrBadGeneration) {
		t.Errorf("out-of-range generation: %v, want ErrBadGeneration", err)
	}
	if _, err := svc.FootprintBytes(0, "no-such-package"); !errors.Is(err, ErrUnknownPackage) {
		t.Errorf("unknown package at gen: %v, want ErrUnknownPackage", err)
	}
	if st := svc.Stats(); st.GenerationQueries == 0 {
		t.Error("generation query counter did not move")
	}

	// The default (-1) path still answers from the resident snapshot.
	snapRes, err := as[ImportanceResult](svc.ImportanceBytes(-1, "open"))
	if err != nil {
		t.Fatal(err)
	}
	if snapRes.Generation != svc.Snapshot().Generation {
		t.Errorf("snapshot importance generation = %d", snapRes.Generation)
	}
}

// TestTimelineBuildJob runs the timeline-build executor end to end and
// checks the service comes out serving the built series.
func TestTimelineBuildJob(t *testing.T) {
	svc, m := newJobService(t)
	dir := t.TempDir()
	j := runJob(t, m, JobTimelineBuild, TimelineBuildParams{
		Packages:    80,
		Seed:        7,
		Generations: 2,
		Births:      1,
		Deaths:      1,
		Drifts:      2,
		Rewires:     1,
		PopconShift: 0.2,
		Dir:         dir,
	})
	if j.State != jobs.StateDone {
		t.Fatalf("job state = %s (%s)", j.State, j.Error)
	}
	var res TimelineBuildResult
	jobResult(t, m, j.ID, &res)
	if res.Generations != 2 || len(res.Fingerprints) != 2 || res.Dir != dir {
		t.Fatalf("result = %+v", res)
	}
	if res.TrendAPIs == 0 {
		t.Error("no importance trends computed")
	}
	if svc.Series() == nil || svc.Series().Generations() != 2 {
		t.Fatal("series not installed after timeline-build")
	}
	if _, err := svc.TrendPathBytes("", 0); err != nil {
		t.Errorf("TrendPath after timeline-build: %v", err)
	}

	bad := runJob(t, m, JobTimelineBuild, TimelineBuildParams{Packages: 0})
	if bad.State != jobs.StateFailed {
		t.Errorf("invalid params job state = %s, want failed", bad.State)
	}
}
