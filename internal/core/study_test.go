package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// sharedStudy runs the pipeline once for the whole test package; the
// corpus and analysis are deterministic.
var (
	studyOnce sync.Once
	studyVal  *Study
	studyErr  error
)

func testStudy(t *testing.T) *Study {
	t.Helper()
	studyOnce.Do(func() {
		c, err := corpus.Generate(corpus.Config{
			Packages: 500, Installations: 1000000, Seed: 7,
		})
		if err != nil {
			studyErr = err
			return
		}
		studyVal, studyErr = Run(c, footprint.Options{})
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return studyVal
}

// TestMeasuredFootprintsRecoverPlanted is the pipeline's central honesty
// check: the static analysis must recover, from machine code alone,
// exactly the APIs the generator planted.
func TestMeasuredFootprintsRecoverPlanted(t *testing.T) {
	s := testStudy(t)
	c := s.Corpus
	checked := 0
	for _, name := range c.Repo.Names() {
		planted := c.Planted[name]
		measured := s.Input.Footprints[name]
		if measured == nil {
			t.Fatalf("%s: no measured footprint", name)
		}
		for api := range planted {
			if !measured.Contains(api) {
				t.Errorf("%s: planted %v not measured", name, api)
			}
		}
		for _, api := range measured.SortedAPIs() {
			if !planted.Contains(api) {
				t.Errorf("%s: measured %v was never planted", name, api)
			}
		}
		checked++
	}
	if checked != c.Repo.Len() {
		t.Fatalf("checked %d packages", checked)
	}
}

func TestSyscallImportanceCurve(t *testing.T) {
	s := testStudy(t)
	imp := metrics.Importance(s.Input)
	_, vals := metrics.Curve(imp, linuxapi.KindSyscall)
	// Figure 2: 224 system calls are indispensable.
	if got := metrics.CountAbove(vals, 0.999); got != 224 {
		t.Errorf("syscalls at ~100%% importance = %d, want 224", got)
	}
	// §3.1: 33 more above 10% (tolerance reflects the tail-mass
	// granularity of a 500-package corpus; at the 3,000-package default
	// the measured count is 261).
	if got := metrics.CountAbove(vals, 0.10); got < 245 || got > 270 {
		t.Errorf("syscalls above 10%% importance = %d, want ~257", got)
	}
	// Table 3: 18 syscalls see no use at all.
	used := len(vals)
	if unused := linuxapi.SyscallCount() - used; unused != 18 {
		t.Errorf("unused syscalls = %d, want 18 (universe %d, used %d)",
			unused, linuxapi.SyscallCount(), used)
	}
}

func TestWeightedCompletenessCurve(t *testing.T) {
	s := testStudy(t)
	path := metrics.GreedyPath(s.Input, linuxapi.KindSyscall)
	wcAt := func(n int) float64 {
		if n > len(path) {
			n = len(path)
		}
		return path[n-1].Completeness
	}
	cases := []struct {
		n      int
		want   float64
		within float64
	}{
		{40, 0.0112, 0.02},
		{81, 0.1068, 0.04},
		{145, 0.5009, 0.06},
		{202, 0.9061, 0.05},
		{len(path), 1.0, 0.0001},
	}
	for _, c := range cases {
		if got := wcAt(c.n); math.Abs(got-c.want) > c.within {
			t.Errorf("weighted completeness after %d syscalls = %.4f, want %.4f ± %.2f",
				c.n, got, c.want, c.within)
		}
	}
	// The curve is monotone.
	for i := 1; i < len(path); i++ {
		if path[i].Completeness < path[i-1].Completeness {
			t.Fatalf("completeness decreases at %d", i)
		}
	}
}

func TestUnweightedNamedValues(t *testing.T) {
	s := testStudy(t)
	unw := metrics.Unweighted(s.Input)
	check := func(name string, want, tol float64) {
		got := unw[linuxapi.Sys(name)]
		if math.Abs(got-want) > tol {
			t.Errorf("unweighted(%s) = %.4f, want %.4f ± %.2f", name, got, want, tol)
		}
	}
	// Table 8: the access/faccessat adoption gap.
	check("access", 0.7424, 0.05)
	check("faccessat", 0.0063, 0.02)
	// Table 9: wait4 vs waitid.
	check("wait4", 0.6056, 0.05)
	check("waitid", 0.0024, 0.02)
	// Table 11: select vs pselect6.
	check("select", 0.6153, 0.05)
	check("pselect6", 0.0413, 0.03)
	// Base syscalls are used by everyone (Figure 8's 40-call floor).
	check("read", 1.0, 1e-9)
	check("mmap", 1.0, 1e-9)
}

func TestExclusiveAttribution(t *testing.T) {
	s := testStudy(t)
	users := s.Input.UsersOf(linuxapi.Sys("kexec_load"))
	if len(users) != 1 || users[0] != "kexec-tools" {
		t.Errorf("kexec_load users = %v, want [kexec-tools]", users)
	}
	users = s.Input.UsersOf(linuxapi.Sys("mbind"))
	if len(users) != 2 {
		t.Errorf("mbind users = %v, want libnuma+libopenblas", users)
	}
	// The raw mbind instruction lives only in the Table 1 libraries.
	var directBinaries []string
	for bin, direct := range s.BinaryDirect {
		if direct.Contains(linuxapi.Sys("mbind")) {
			directBinaries = append(directBinaries, bin)
		}
	}
	if len(directBinaries) != 2 {
		t.Errorf("binaries with raw mbind = %v, want the two .so files", directBinaries)
	}
	for _, b := range directBinaries {
		if !contains(b, ".so") {
			t.Errorf("raw mbind found outside a library: %s", b)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCensusShape(t *testing.T) {
	s := testStudy(t)
	cen := &s.Stats.Census
	total := cen.Total()
	if total == 0 {
		t.Fatal("no files classified")
	}
	elfFrac := float64(cen.ELF()) / float64(total)
	if math.Abs(elfFrac-0.60) > 0.06 {
		t.Errorf("ELF fraction = %.3f, want ~0.60 (Figure 1)", elfFrac)
	}
	shFrac := float64(cen.Scripts["sh"]) / float64(total)
	if math.Abs(shFrac-0.15) > 0.04 {
		t.Errorf("dash-script fraction = %.3f, want ~0.15", shFrac)
	}
	if cen.ELFStatic == 0 {
		t.Error("no static binaries in the corpus")
	}
	if cen.ELFLib == 0 || cen.ELFExec == 0 {
		t.Error("census missing libs or execs")
	}
}

func TestScriptOnlyPackagesInheritInterpreter(t *testing.T) {
	s := testStudy(t)
	demo := s.Input.Footprints["python-app-demo"]
	py := s.Input.Footprints["python2.7"]
	if demo == nil || py == nil {
		t.Fatal("missing footprints")
	}
	for _, api := range py.SortedAPIs() {
		if !demo.Contains(api) {
			t.Errorf("python-app-demo missing interpreter API %v", api)
		}
	}
}

func TestIoctlOpcodeCurve(t *testing.T) {
	s := testStudy(t)
	imp := metrics.Importance(s.Input)
	_, vals := metrics.Curve(imp, linuxapi.KindIoctl)
	if got := metrics.CountAbove(vals, 0.999); got != 52 {
		t.Errorf("ioctl codes at 100%% = %d, want 52 (Figure 4)", got)
	}
	if got := metrics.CountAbove(vals, 0.01); got < 170 || got > 210 {
		t.Errorf("ioctl codes above 1%% = %d, want ~188", got)
	}
	_, fvals := metrics.Curve(imp, linuxapi.KindFcntl)
	if got := metrics.CountAbove(fvals, 0.999); got != 11 {
		t.Errorf("fcntl codes at 100%% = %d, want 11 (Figure 5)", got)
	}
	_, pvals := metrics.Curve(imp, linuxapi.KindPrctl)
	if got := metrics.CountAbove(pvals, 0.999); got != 9 {
		t.Errorf("prctl codes at 100%% = %d, want 9 (Figure 5)", got)
	}
}

func TestPseudoFileCurve(t *testing.T) {
	s := testStudy(t)
	imp := metrics.Importance(s.Input)
	if v := imp[linuxapi.Pseudo("/dev/null")]; v < 0.999 {
		t.Errorf("importance(/dev/null) = %v, want ~1", v)
	}
	users := s.Input.UsersOf(linuxapi.Pseudo("/dev/kvm"))
	if len(users) != 1 || users[0] != "qemu-user" {
		t.Errorf("/dev/kvm users = %v, want [qemu-user]", users)
	}
}

func TestLibcSymbolCurve(t *testing.T) {
	s := testStudy(t)
	imp := metrics.Importance(s.Input)
	apis, vals := metrics.Curve(imp, linuxapi.KindLibcSym)
	if len(apis) == 0 {
		t.Fatal("no libc symbols measured")
	}
	frac := float64(metrics.CountAbove(vals, 0.999)) / float64(linuxapi.GNULibcSymbolCount)
	// Figure 7: 42.8% of exports at 100%. Syscall-coupled exports are
	// derived from the syscall model, so allow a band.
	if frac < 0.30 || frac > 0.52 {
		t.Errorf("libc symbols at 100%% = %.3f of exports, want ~0.43", frac)
	}
	if v := imp[linuxapi.LibcSym("__libc_start_main")]; v < 0.999 {
		t.Errorf("importance(__libc_start_main) = %v", v)
	}
}

func TestStatsCensus(t *testing.T) {
	s := testStudy(t)
	if s.Stats.Executables == 0 {
		t.Fatal("no executables analyzed")
	}
	if s.Stats.TotalSites == 0 {
		t.Error("no syscall sites seen")
	}
	// §7: a small fraction of sites is unresolvable (the generic
	// syscall(2) wrapper's own body, etc.).
	fr := float64(s.Stats.UnresolvedSites) / float64(s.Stats.TotalSites)
	if fr > 0.10 {
		t.Errorf("unresolved site fraction = %.3f, want < 0.10", fr)
	}
	if s.Stats.DistinctFootprints == 0 || s.Stats.UniqueFootprints == 0 {
		t.Errorf("footprint dedup stats empty: %+v", s.Stats)
	}
	if s.Stats.DirectSyscallExecs == 0 || s.Stats.DirectSyscallLibs == 0 {
		t.Errorf("direct-syscall census empty: %+v", s.Stats)
	}
	// Most binaries go through libc rather than issuing syscalls directly.
	if s.Stats.DirectSyscallExecs >= s.Stats.Executables {
		t.Errorf("every executable issues direct syscalls: %d of %d",
			s.Stats.DirectSyscallExecs, s.Stats.Executables)
	}
}

func TestAblationsChangeResults(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Packages: 120, Installations: 100000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(c, footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Run(c, footprint.Options{WholeBinary: true})
	if err != nil {
		t.Fatal(err)
	}
	// Whole-binary scanning includes every libc export's code in each
	// binary... at minimum it can never shrink a footprint.
	for name, fp := range base.Input.Footprints {
		for _, api := range fp.SortedAPIs() {
			if !whole.Input.Footprints[name].Contains(api) {
				t.Errorf("whole-binary lost %v from %s", api, name)
			}
		}
	}
	noStrings, err := Run(c, footprint.Options{NoStrings: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range noStrings.Input.Footprints {
		for _, api := range fp.SortedAPIs() {
			if api.Kind == linuxapi.KindPseudoFile {
				t.Fatal("NoStrings still extracted pseudo files")
			}
		}
	}
}

func TestSupportedSyscallSet(t *testing.T) {
	set := SupportedSyscallSet([]string{"read", "write"})
	if !set.Contains(linuxapi.Sys("read")) || len(set) != 2 {
		t.Errorf("SupportedSyscallSet = %v", set)
	}
}

// TestRunSkipsCorruptFiles verifies the pipeline's resilience: a package
// file that classifies as ELF but fails to parse is skipped with a
// counter rather than aborting the study.
func TestRunSkipsCorruptFiles(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Packages: 60, Installations: 100000, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate one package's executable: it keeps the ELF magic but no
	// longer parses, and classifies as unknown.
	victim := c.Repo.Get("pkg-0000")
	for i := range victim.Files {
		data := victim.Files[i].Data
		if len(data) > 64 && data[0] == 0x7F {
			victim.Files[i].Data = data[:48]
			break
		}
	}
	s, err := Run(c, footprint.Options{})
	if err != nil {
		t.Fatalf("corrupt file aborted the study: %v", err)
	}
	if len(s.Input.Footprints) != 60 {
		t.Errorf("footprints = %d", len(s.Input.Footprints))
	}
	if s.Stats.Census.Other == 0 {
		t.Error("the junk file should count in the census")
	}
}
