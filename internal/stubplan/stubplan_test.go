package stubplan

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/anacache"
	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

func testStudy(t testing.TB, pkgs int, seed int64, cache *anacache.Cache) *core.Study {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Packages: pkgs, Installations: 1 << 20, Seed: seed})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, err := core.RunCached(c, footprint.Options{}, cache)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return s
}

func openCache(t testing.TB, dir string) *anacache.Cache {
	t.Helper()
	cache, err := anacache.Open(dir, footprint.Options{})
	if err != nil {
		t.Fatalf("anacache: %v", err)
	}
	return cache
}

// The emulation-heavy fixture is shared: several tests interrogate the
// same corpus's matrix, and each matrix build costs thousands of
// emulator runs.
var (
	fixOnce   sync.Once
	fixStudy  *core.Study
	fixMatrix *Matrix
)

func fixture(t *testing.T) (*core.Study, *Matrix) {
	fixOnce.Do(func() {
		c, err := corpus.Generate(corpus.Config{Packages: 40, Installations: 1 << 20, Seed: 7})
		if err != nil {
			return
		}
		s, err := core.Run(c, footprint.Options{})
		if err != nil {
			return
		}
		fixStudy = s
		fixMatrix = BuildMatrix(s, Options{})
	})
	if fixStudy == nil {
		t.Fatal("fixture study failed to build")
	}
	return fixStudy, fixMatrix
}

// All three verdict classes must be populated on a generated corpus: the
// base band is issued inside __libc_start_main, so its resource calls are
// required and its other calls fakeable, while wrapper-band calls issued
// through exported symbols are stubbable.
func TestMatrixClassesNonEmpty(t *testing.T) {
	s, m := fixture(t)
	if m.Stats.Binaries == 0 {
		t.Fatal("no executables in corpus")
	}
	if m.Stats.Emulations == 0 {
		t.Fatal("cacheless build performed no emulations")
	}
	if m.Stats.Inconclusive == m.Stats.Binaries {
		t.Fatal("every baseline run failed to complete")
	}
	if len(m.Waivable) == 0 {
		t.Fatal("no package earned any waiver")
	}
	if len(m.FakeNeeded) == 0 {
		t.Fatal("no package has a fakeable API (expected the non-resource base band)")
	}
	// Stubbable = waivable but not fake-needed somewhere; required =
	// a dynamically observed API with no waiver. Check both exist.
	stubbable, required := false, false
	for pkg, w := range m.Waivable {
		f := m.FakeNeeded[pkg]
		for api := range w {
			if f == nil || !f.Contains(api) {
				stubbable = true
			}
		}
	}
	for pkg := range m.Waivable {
		fp := s.Input.Footprints[pkg]
		w := m.Waivable[pkg]
		for _, api := range fp.SortedAPIs() {
			if api.Kind == linuxapi.KindSyscall && !w.Contains(api) {
				// Either required or static-only; confirm at least one
				// genuinely required call exists via a known base-band
				// resource call every dynamic binary issues at startup.
				if api.Name == "mmap" || api.Name == "brk" || api.Name == "open" {
					required = true
				}
			}
		}
	}
	if !stubbable {
		t.Error("no stubbable API in any package")
	}
	if !required {
		t.Error("no required base-band resource call in any package")
	}
}

// Stub-aware completeness must dominate presence-only completeness for
// every Table 6 target, and the stub-aware greedy path must dominate the
// presence-only path pointwise — waivers only relax the subset test.
func TestStubAwareDominatesPresenceOnly(t *testing.T) {
	s, m := fixture(t)
	in := s.Input
	path := metrics.GreedyPath(in, linuxapi.KindSyscall)

	systems := append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
	for _, sys := range systems {
		set := compat.SupportedSet(sys, path)
		presence := metrics.WeightedCompleteness(in, set,
			metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
		stubAware := metrics.WeightedCompleteness(in, set,
			metrics.CompletenessOptions{Kind: linuxapi.KindSyscall, Waivable: m.Waivable})
		if stubAware < presence {
			t.Errorf("%s%s: stub-aware %.6f < presence-only %.6f",
				sys.Name, sys.Version, stubAware, presence)
		}
	}

	waived := metrics.GreedyPathWaived(in, linuxapi.KindSyscall, m.Waivable)
	if len(waived) != len(path) {
		t.Fatalf("path lengths differ: %d vs %d", len(waived), len(path))
	}
	for i := range path {
		if waived[i].API != path[i].API {
			t.Fatalf("ordering diverged at %d: %v vs %v", i, waived[i].API, path[i].API)
		}
		if waived[i].Completeness < path[i].Completeness-1e-12 {
			t.Errorf("point %d (%s): waived %.6f < presence %.6f",
				i, path[i].API.Name, waived[i].Completeness, path[i].Completeness)
		}
	}
}

func TestPlanShape(t *testing.T) {
	s, m := fixture(t)
	path := metrics.GreedyPath(s.Input, linuxapi.KindSyscall)
	sys, ok := compat.SystemByName("freebsd-emu")
	if !ok {
		t.Fatal("SystemByName(freebsd-emu) not found")
	}
	p := BuildPlan(s.Input, path, sys, m)
	if p.StubAwareCompleteness < p.PresenceCompleteness {
		t.Errorf("baseline: stub-aware %.6f < presence %.6f",
			p.StubAwareCompleteness, p.PresenceCompleteness)
	}
	if p.FinalCompleteness < p.StubAwareCompleteness {
		t.Errorf("final %.6f < baseline %.6f", p.FinalCompleteness, p.StubAwareCompleteness)
	}
	if p.Implement+p.Fake+p.Stub != len(p.Steps) {
		t.Errorf("action counts %d+%d+%d != %d steps", p.Implement, p.Fake, p.Stub, len(p.Steps))
	}
	prev := p.StubAwareCompleteness
	for i, st := range p.Steps {
		if st.N != i+1 {
			t.Fatalf("step %d has N=%d", i, st.N)
		}
		if st.Completeness < prev-1e-12 {
			t.Errorf("step %d (%s): completeness decreased %.9f -> %.9f",
				st.N, st.API, prev, st.Completeness)
		}
		if st.Users < st.Waived {
			t.Errorf("step %d (%s): waived %d > users %d", st.N, st.API, st.Waived, st.Users)
		}
		switch st.Action {
		case ActionImplement, ActionFake, ActionStub:
		default:
			t.Errorf("step %d: bad action %q", st.N, st.Action)
		}
		prev = st.Completeness
	}
}

// A warm build over a populated cache must perform zero emulator runs and
// produce a byte-identical plan.
func TestColdWarmByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := testStudy(t, 20, 11, openCache(t, dir))
	mCold := BuildMatrix(cold, Options{})
	if mCold.Stats.Emulations == 0 {
		t.Fatal("cold build performed no emulations")
	}

	// Fresh cache instance over the same directory: defeats the in-memory
	// memo, exercising the disk path a new process would take.
	warm := testStudy(t, 20, 11, openCache(t, dir))
	mWarm := BuildMatrix(warm, Options{})
	if mWarm.Stats.Emulations != 0 {
		t.Fatalf("warm build performed %d emulations", mWarm.Stats.Emulations)
	}
	if mWarm.Stats.CacheHits == 0 {
		t.Fatal("warm build recorded no cache hits")
	}

	planOf := func(s *core.Study, m *Matrix) []byte {
		path := metrics.GreedyPath(s.Input, linuxapi.KindSyscall)
		raw, err := json.Marshal(BuildPlan(s.Input, path, compat.GrapheneFixed, m))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return raw
	}
	a, b := planOf(cold, mCold), planOf(warm, mWarm)
	if string(a) != string(b) {
		t.Fatalf("cold and warm plans differ:\ncold: %s\nwarm: %s", a, b)
	}
}

// TestHelperPlanProcess is not a test: when invoked as a subprocess it
// builds the plan and writes the JSON to STUBPLAN_OUT.
func TestHelperPlanProcess(t *testing.T) {
	out := os.Getenv("STUBPLAN_OUT")
	if out == "" {
		t.Skip("helper process only")
	}
	s := testStudy(t, 20, 23, nil)
	m := BuildMatrix(s, Options{})
	path := metrics.GreedyPath(s.Input, linuxapi.KindSyscall)
	p := BuildPlan(s.Input, path, compat.Systems[2], m) // FreeBSD-emu
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
}

// The plan must be byte-identical across two independent processes over
// the same corpus — no map-iteration or address-dependent ordering leaks
// into the output.
func TestPlanDeterministicAcrossProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	dir := t.TempDir()
	outs := make([][]byte, 2)
	for i := range outs {
		out := filepath.Join(dir, "plan"+string(rune('a'+i))+".json")
		cmd := exec.Command(exe, "-test.run", "TestHelperPlanProcess", "-test.count=1")
		cmd.Env = append(os.Environ(), "STUBPLAN_OUT="+out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("helper %d: %v\n%s", i, err, msg)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("read helper output: %v", err)
		}
		outs[i] = raw
	}
	if string(outs[0]) != string(outs[1]) {
		t.Fatalf("plans differ across processes:\na: %s\nb: %s", outs[0], outs[1])
	}
}

// BenchmarkStubPlanColdVsWarm measures the matrix+plan build with an
// empty verdict cache versus a populated one; benchgate asserts the warm
// path is at least 2x faster.
func BenchmarkStubPlanColdVsWarm(b *testing.B) {
	const pkgs, seed = 20, 31
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := testStudy(b, pkgs, seed, openCache(b, b.TempDir()))
			b.StartTimer()
			m := BuildMatrix(s, Options{})
			path := metrics.GreedyPath(s.Input, linuxapi.KindSyscall)
			if p := BuildPlan(s.Input, path, compat.GrapheneFixed, m); p == nil {
				b.Fatal("nil plan")
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		prime := testStudy(b, pkgs, seed, openCache(b, dir))
		BuildMatrix(prime, Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := testStudy(b, pkgs, seed, openCache(b, dir))
			b.StartTimer()
			m := BuildMatrix(s, Options{})
			if m.Stats.Emulations != 0 {
				b.Fatalf("warm build emulated %d times", m.Stats.Emulations)
			}
			path := metrics.GreedyPath(s.Input, linuxapi.KindSyscall)
			if p := BuildPlan(s.Input, path, compat.GrapheneFixed, m); p == nil {
				b.Fatal("nil plan")
			}
		}
	})
}
