package stubplan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
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
	// §2.3: every API a baseline observed is in its package's static
	// footprint.
	if m.Stats.StaticMisses != 0 {
		t.Errorf("%d dynamically observed APIs fall outside their static footprints", m.Stats.StaticMisses)
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
// every Table 6 target, and the stub-aware curve along the greedy path
// must dominate the presence-only path pointwise — waivers only relax
// the subset test.
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

	pathAPIs := make([]linuxapi.API, len(path))
	for i, pt := range path {
		pathAPIs[i] = pt.API
	}
	waived := metrics.CompletenessCurve(in, nil, pathAPIs,
		metrics.CompletenessOptions{Kind: linuxapi.KindSyscall, Waivable: m.Waivable})
	if len(waived) != len(path)+1 {
		t.Fatalf("curve has %d points for a %d-step path", len(waived), len(path))
	}
	for i := range path {
		if waived[i+1] < path[i].Completeness-1e-12 {
			t.Errorf("point %d (%s): waived %.6f < presence %.6f",
				i, path[i].API.Name, waived[i+1], path[i].Completeness)
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

// naivePlan is BuildPlan as a per-step loop: every step scans every
// package and recomputes weighted completeness from scratch. It is the
// reference BuildPlan must match byte for byte.
func naivePlan(in *metrics.Input, path []metrics.PathPoint, sys compat.System, m *Matrix) *Plan {
	supported := compat.SupportedSet(sys, path)
	opts := metrics.CompletenessOptions{Kind: linuxapi.KindSyscall}
	waivedOpts := metrics.CompletenessOptions{Kind: linuxapi.KindSyscall, Waivable: m.Waivable}

	p := &Plan{
		System:               sys.Name,
		Version:              sys.Version,
		PolicyVersion:        m.PolicyVersion,
		SupportedCount:       len(supported),
		PresenceCompleteness: metrics.WeightedCompleteness(in, supported, opts),
	}
	p.StubAwareCompleteness = metrics.WeightedCompleteness(in, supported, waivedOpts)
	p.FinalCompleteness = p.StubAwareCompleteness

	cur := make(footprint.Set, len(supported))
	for api := range supported {
		cur.Add(api)
	}
	prev := p.StubAwareCompleteness
	for _, pt := range path {
		if supported.Contains(pt.API) {
			continue
		}
		users, waived, needFake, needImpl := 0, 0, false, false
		id, interned := linuxapi.InternedID(pt.API)
		for pkg, fp := range in.Footprints {
			if !interned || !fp.HasID(id) {
				continue
			}
			users++
			if w := m.Waivable[pkg]; w != nil && w.Contains(pt.API) {
				waived++
				if f := m.FakeNeeded[pkg]; f != nil && f.Contains(pt.API) {
					needFake = true
				}
			} else {
				needImpl = true
			}
		}
		action := ActionStub
		switch {
		case needImpl:
			action = ActionImplement
			p.Implement++
		case needFake:
			action = ActionFake
			p.Fake++
		default:
			p.Stub++
		}
		cur.Add(pt.API)
		wc := metrics.WeightedCompleteness(in, cur, waivedOpts)
		p.Steps = append(p.Steps, Step{
			N:            len(p.Steps) + 1,
			API:          pt.API.Name,
			Action:       action,
			Importance:   pt.Importance,
			Users:        users,
			Waived:       waived,
			Completeness: wc,
			Delta:        wc - prev,
		})
		prev = wc
		p.FinalCompleteness = wc
	}
	return p
}

// syntheticMatrix draws each package's waivers as a random part of its
// footprint (syscalls and other kinds alike) and its fake-needed set as
// a random part of the waivers; some packages get none, a nil set or an
// empty one. No emulation is needed.
func syntheticMatrix(in *metrics.Input, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := &Matrix{
		PolicyVersion: PolicyVersion,
		Waivable:      make(map[string]footprint.Set),
		FakeNeeded:    make(map[string]footprint.Set),
	}
	pkgs := make([]string, 0, len(in.Footprints))
	for pkg := range in.Footprints {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	for _, pkg := range pkgs {
		switch rng.Intn(6) {
		case 0:
			continue
		case 1:
			m.Waivable[pkg] = nil
			continue
		case 2:
			m.Waivable[pkg] = footprint.Set{}
			continue
		}
		keep, fake := rng.Float64(), rng.Float64()
		w, f := make(footprint.Set), make(footprint.Set)
		for _, api := range in.Footprints[pkg].SortedAPIs() {
			if rng.Float64() < keep {
				w.Add(api)
				if rng.Float64() < fake {
					f.Add(api)
				}
			}
		}
		m.Waivable[pkg] = w
		if len(f) > 0 {
			m.FakeNeeded[pkg] = f
		}
	}
	return m
}

// BuildPlan must produce the naive loop's exact bytes for all five
// systems: over the emulated fixture matrix, over random synthetic
// matrices and over an empty one. The synthetic corpus's survey total
// is not a power of two, so a curve that summed its points in any other
// order than WeightedCompleteness would change low bits here.
func TestBuildPlanMatchesNaive(t *testing.T) {
	fix, fixM := fixture(t)
	c, err := corpus.Generate(corpus.Config{Packages: 40, Installations: 200000, Seed: 7})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	heavy, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	type planCase struct {
		name string
		in   *metrics.Input
		m    *Matrix
	}
	cases := []planCase{
		{"fixture", fix.Input, fixM},
		{"fixture-empty", fix.Input, &Matrix{PolicyVersion: PolicyVersion}},
		{"synthetic-empty", heavy.Input, &Matrix{PolicyVersion: PolicyVersion}},
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases = append(cases,
			planCase{fmt.Sprintf("synthetic-%d", seed), heavy.Input, syntheticMatrix(heavy.Input, seed)},
			planCase{fmt.Sprintf("fixture-synthetic-%d", seed), fix.Input, syntheticMatrix(fix.Input, seed)})
	}
	systems := append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
	for _, pc := range cases {
		path := metrics.GreedyPath(pc.in, linuxapi.KindSyscall)
		for _, sys := range systems {
			got, err := json.Marshal(BuildPlan(pc.in, path, sys, pc.m))
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			want, err := json.Marshal(naivePlan(pc.in, path, sys, pc.m))
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				lo := max(i-120, 0)
				t.Errorf("%s %s%s: plan differs from the naive loop at byte %d:\ngot:  ...%s\nwant: ...%s",
					pc.name, sys.Name, sys.Version, i,
					got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
			}
		}
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
	if mCold.Stats.StaticMisses != 0 {
		t.Errorf("cold build: %d dynamically observed APIs outside their static footprints", mCold.Stats.StaticMisses)
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

// worse must be symmetric and fail closed: a verdict outside the three
// classes ranks as required whichever binary it came from.
func TestWorseFailsClosed(t *testing.T) {
	classes := []Verdict{VerdictStubbable, VerdictFakeable, VerdictRequired, "bogus", ""}
	rank := map[Verdict]int{VerdictStubbable: 0, VerdictFakeable: 1}
	for _, a := range classes {
		for _, b := range classes {
			want := VerdictRequired
			ra, okA := rank[a]
			rb, okB := rank[b]
			if okA && okB {
				want = []Verdict{VerdictStubbable, VerdictFakeable}[max(ra, rb)]
			}
			if got := worse(a, b); got != want {
				t.Errorf("worse(%q, %q) = %q, want %q", a, b, got, want)
			}
		}
	}
}

// A cached verdict record holding a verdict outside the three classes,
// or a verdict for a name with no system-call number, must fail closed:
// BuildMatrix re-emulates exactly that binary, overwrites its record and
// builds the clean matrix.
func TestCorruptCachedVerdictReemulated(t *testing.T) {
	dir := t.TempDir()
	clean := BuildMatrix(testStudy(t, 20, 11, openCache(t, dir)), Options{})
	tag := VerdictTag(footprint.Options{})

	// The first binary with a stubbable verdict: taken at face value, a
	// "bogus" class there would leave the call unwaived.
	var key, name string
	var rec BinaryVerdicts
	seed := openCache(t, dir)
	for _, j := range executables(testStudy(t, 20, 11, seed)) {
		var bv BinaryVerdicts
		if !seed.GetVerdicts(anacache.Key(j.data), tag, &bv) {
			t.Fatalf("%s: no verdict record after a cold build", j.path)
		}
		for _, n := range sortedKeys(bv.Verdicts) {
			if bv.Verdicts[n] == VerdictStubbable {
				key, name, rec = anacache.Key(j.data), n, bv
				break
			}
		}
		if key != "" {
			break
		}
	}
	if key == "" {
		t.Fatal("no stubbable verdict in the corpus")
	}

	corruptions := map[string]func(map[string]Verdict){
		"unknown class":   func(v map[string]Verdict) { v[name] = "bogus" },
		"unknown syscall": func(v map[string]Verdict) { v["no_such_syscall"] = VerdictStubbable },
	}
	for what, corrupt := range corruptions {
		bad := BinaryVerdicts{Completed: rec.Completed, Verdicts: make(map[string]Verdict)}
		for n, v := range rec.Verdicts {
			bad.Verdicts[n] = v
		}
		corrupt(bad.Verdicts)
		if err := openCache(t, dir).PutVerdicts(key, tag, &bad); err != nil {
			t.Fatalf("%s: plant record: %v", what, err)
		}

		m := BuildMatrix(testStudy(t, 20, 11, openCache(t, dir)), Options{})
		if m.Stats.CacheMisses != 1 || m.Stats.CacheHits != m.Stats.Binaries-1 || m.Stats.Emulations == 0 {
			t.Errorf("%s: stats %+v, want exactly one binary re-emulated", what, m.Stats)
		}
		if !reflect.DeepEqual(m.Waivable, clean.Waivable) || !reflect.DeepEqual(m.FakeNeeded, clean.FakeNeeded) ||
			m.Stats.Inconclusive != clean.Stats.Inconclusive {
			t.Errorf("%s: matrix differs from a clean build", what)
		}
		var back BinaryVerdicts
		if !openCache(t, dir).GetVerdicts(key, tag, &back) || !reflect.DeepEqual(back, rec) {
			t.Errorf("%s: record not overwritten with the clean verdicts (%s is %q)", what, name, back.Verdicts[name])
		}
	}
}

func sortedKeys(m map[string]Verdict) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
// path is at least 2x faster. The plans side times the five BuildPlan
// calls alone over the warm matrix (recorded, not gated).
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
	dir := b.TempDir()
	prime := testStudy(b, pkgs, seed, openCache(b, dir))
	BuildMatrix(prime, Options{})
	b.Run("warm", func(b *testing.B) {
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
	b.Run("plans", func(b *testing.B) {
		m := BuildMatrix(prime, Options{})
		path := metrics.GreedyPath(prime.Input, linuxapi.KindSyscall)
		systems := append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, sys := range systems {
				if p := BuildPlan(prime.Input, path, sys, m); p == nil {
					b.Fatal("nil plan")
				}
			}
		}
	})
}
