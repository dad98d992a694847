package service

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"testing"

	"repro"
	"repro/internal/stubplan"
)

// The plan surface is emulation-heavy: building a verdict matrix runs
// every executable through the emulator a few hundred times. Plan tests
// therefore share one small study and one persistent verdict-cache
// directory — the first matrix build is cold, every later service over
// the same corpus replays verdicts from disk.
var (
	planOnce     sync.Once
	planStudyCfg = repro.Config{Packages: 16, Installations: 200000, Seed: 41}
	planCacheDir string
	planErr      error
)

func planTestService(tb testing.TB) *Service {
	tb.Helper()
	planOnce.Do(func() {
		planCacheDir, planErr = os.MkdirTemp("", "planverdicts-*")
	})
	if planErr != nil {
		tb.Fatal(planErr)
	}
	cache, err := repro.OpenAnalysisCache(planCacheDir)
	if err != nil {
		tb.Fatal(err)
	}
	study, err := repro.NewStudyCached(planStudyCfg, cache)
	if err != nil {
		tb.Fatal(err)
	}
	return New(study, "plan-test", Config{Cache: cache})
}

func TestPlanQuery(t *testing.T) {
	svc := planTestService(t)

	if _, err := svc.PlanBytes("no-such-layer"); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("Plan(no-such-layer) err = %v, want ErrUnknownSystem", err)
	}

	res, err := as[PlanResult](svc.PlanBytes("graphene+sched"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("first plan claims cached")
	}
	if res.Generation != 1 {
		t.Errorf("generation = %d, want 1", res.Generation)
	}
	if res.PolicyVersion != stubplan.PolicyVersion {
		t.Errorf("policy version = %d, want %d", res.PolicyVersion, stubplan.PolicyVersion)
	}
	if res.StubAwareCompleteness < res.PresenceCompleteness {
		t.Errorf("stub-aware %.6f < presence-only %.6f",
			res.StubAwareCompleteness, res.PresenceCompleteness)
	}
	if res.Implement+res.Fake+res.Stub != len(res.Steps) {
		t.Errorf("action counts %d+%d+%d != %d steps",
			res.Implement, res.Fake, res.Stub, len(res.Steps))
	}

	again, err := as[PlanResult](svc.PlanBytes("Graphene+sched")) // case-insensitive lookup
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat plan not served from cache")
	}

	// A second system reuses the published matrix: no second build.
	if _, err := svc.PlanBytes("freebsd-emu"); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.StubMatrixBuilds != 1 {
		t.Errorf("matrix builds = %d, want 1", st.StubMatrixBuilds)
	}
	if !st.StubMatrixOn {
		t.Error("StubMatrixOn = false with a resident matrix")
	}
	// Three resolved queries; the unknown-system probe never counts.
	if st.PlanQueries != 3 {
		t.Errorf("plan queries = %d, want 3", st.PlanQueries)
	}
	if st.StubBinaries == 0 {
		t.Error("matrix classified no binaries")
	}
	if st.StubEmulations == 0 && st.StubCacheHits == 0 {
		t.Error("matrix neither emulated nor replayed cached verdicts")
	}
}

func TestPlanBytesHotsetPublish(t *testing.T) {
	svc := planTestService(t)

	if _, err := svc.PlanBytes("no-such-layer"); !errors.Is(err, ErrUnknownSystem) {
		t.Fatalf("PlanBytes(no-such-layer) err = %v, want ErrUnknownSystem", err)
	}

	cold, err := svc.PlanBytes("graphene")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Status != 200 || cold.ETag == "" {
		t.Fatalf("cold = status %d etag %q", cold.Status, cold.ETag)
	}
	if !bytes.Contains(cold.Body, []byte(`"cached": false`)) {
		t.Error("cold body does not say cached false")
	}

	// The matrix build published every system's plan into the hotset:
	// the repeat — and every other modeled system — is a lock-free hit.
	h0 := svc.Stats().HotsetHits
	warm, err := svc.PlanBytes("graphene")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(warm.Body, []byte(`"cached": true`)) {
		t.Error("warm body does not say cached true")
	}
	if warm.ETag != cold.ETag {
		t.Errorf("etag changed between requests: %q vs %q", cold.ETag, warm.ETag)
	}
	for _, name := range []string{"user-mode-linux", "l4linux", "freebsd-emu", "graphene+sched"} {
		if _, err := svc.PlanBytes(name); err != nil {
			t.Fatalf("PlanBytes(%s): %v", name, err)
		}
	}
	st := svc.Stats()
	if st.HotsetHits <= h0 {
		t.Errorf("hotset hits did not grow: %d -> %d", h0, st.HotsetHits)
	}
	if st.StubMatrixBuilds != 1 {
		t.Errorf("matrix builds = %d, want 1", st.StubMatrixBuilds)
	}
}
