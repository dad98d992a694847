package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/apt"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/popcon"
	"repro/internal/store"
)

func set(apis ...linuxapi.API) footprint.Set {
	s := make(footprint.Set)
	for _, a := range apis {
		s.Add(a)
	}
	return s
}

// bitsOf converts map footprints to the Input's bitset form.
func bitsOf(m map[string]footprint.Set) map[string]*footprint.BitSet {
	out := make(map[string]*footprint.BitSet, len(m))
	for pkg, s := range m {
		out[pkg] = footprint.SetBits(s)
	}
	return out
}

// fixture: four packages with overlapping footprints.
//
//	libc6 (100%): read, write
//	tool  (50%):  read, ioctl, TCGETS
//	rare  (10%):  reboot
//	never (0%):   kexec_load
func fixture() *Input {
	repo := apt.NewRepository()
	repo.Add(&apt.Package{Name: "libc6"})
	repo.Add(&apt.Package{Name: "tool", Depends: []string{"libc6"}})
	repo.Add(&apt.Package{Name: "rare", Depends: []string{"libc6"}})
	repo.Add(&apt.Package{Name: "never"})
	sv := popcon.NewSurvey(1000)
	sv.Set("libc6", 1000)
	sv.Set("tool", 500)
	sv.Set("rare", 100)
	sv.Set("never", 0)
	return &Input{
		Repo:   repo,
		Survey: sv,
		Footprints: bitsOf(map[string]footprint.Set{
			"libc6": set(linuxapi.Sys("read"), linuxapi.Sys("write")),
			"tool":  set(linuxapi.Sys("read"), linuxapi.Sys("ioctl"), linuxapi.Ioctl("TCGETS")),
			"rare":  set(linuxapi.Sys("reboot")),
			"never": set(linuxapi.Sys("kexec_load")),
		}),
		Direct: bitsOf(map[string]footprint.Set{
			"libc6": set(linuxapi.Sys("read"), linuxapi.Sys("write")),
			"tool":  set(linuxapi.Ioctl("TCGETS")),
		}),
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestImportance(t *testing.T) {
	imp := Importance(fixture())
	if v := imp[linuxapi.Sys("read")]; v < 0.999999 {
		t.Errorf("importance(read) = %v, want ~1 (libc6 everywhere)", v)
	}
	if v := imp[linuxapi.Sys("ioctl")]; !almost(v, 0.5) {
		t.Errorf("importance(ioctl) = %v, want 0.5", v)
	}
	if v := imp[linuxapi.Sys("reboot")]; !almost(v, 0.1) {
		t.Errorf("importance(reboot) = %v, want 0.1", v)
	}
	if v := imp[linuxapi.Sys("kexec_load")]; v != 0 {
		t.Errorf("importance(kexec_load) = %v, want 0", v)
	}
	if v := imp[linuxapi.Ioctl("TCGETS")]; !almost(v, 0.5) {
		t.Errorf("importance(TCGETS) = %v, want 0.5", v)
	}
}

func TestImportanceIndependentCombination(t *testing.T) {
	// Two packages at 50% each using the same API: 1-(0.5)^2 = 0.75.
	sv := popcon.NewSurvey(100)
	sv.Set("a", 50)
	sv.Set("b", 50)
	in := &Input{
		Survey: sv,
		Footprints: bitsOf(map[string]footprint.Set{
			"a": set(linuxapi.Sys("mount")),
			"b": set(linuxapi.Sys("mount")),
		}),
	}
	imp := Importance(in)
	if v := imp[linuxapi.Sys("mount")]; !almost(v, 0.75) {
		t.Errorf("importance = %v, want 0.75", v)
	}
}

func TestUnweighted(t *testing.T) {
	unw := Unweighted(fixture())
	if v := unw[linuxapi.Sys("read")]; !almost(v, 0.5) {
		t.Errorf("unweighted(read) = %v, want 0.5 (2 of 4 packages)", v)
	}
	if v := unw[linuxapi.Sys("kexec_load")]; !almost(v, 0.25) {
		t.Errorf("unweighted(kexec_load) = %v, want 0.25 (popularity ignored)", v)
	}
}

func TestWeightedCompleteness(t *testing.T) {
	in := fixture()
	// Support read+write only: libc6 OK; tool needs ioctl -> unsupported;
	// rare needs reboot -> unsupported; never (weight 0) irrelevant.
	// Total weight = 1 + 0.5 + 0.1 + 0 = 1.6; supported weight = 1.
	wc := WeightedCompleteness(in,
		set(linuxapi.Sys("read"), linuxapi.Sys("write")),
		CompletenessOptions{Kind: linuxapi.KindSyscall})
	if !almost(wc, 1.0/1.6) {
		t.Errorf("WC = %v, want %v", wc, 1.0/1.6)
	}
	// Add ioctl: tool is judged only on syscalls (Kind filter), so TCGETS
	// does not block it.
	wc = WeightedCompleteness(in,
		set(linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("ioctl")),
		CompletenessOptions{Kind: linuxapi.KindSyscall})
	if !almost(wc, 1.5/1.6) {
		t.Errorf("WC = %v, want %v", wc, 1.5/1.6)
	}
	// Judged on all kinds, TCGETS blocks tool again.
	wc = WeightedCompleteness(in,
		set(linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("ioctl")),
		CompletenessOptions{AllKinds: true})
	if !almost(wc, 1.0/1.6) {
		t.Errorf("WC(all kinds) = %v, want %v", wc, 1.0/1.6)
	}
}

func TestWeightedCompletenessDependencyPropagation(t *testing.T) {
	repo := apt.NewRepository()
	repo.Add(&apt.Package{Name: "base"})
	repo.Add(&apt.Package{Name: "app", Depends: []string{"base"}})
	sv := popcon.NewSurvey(100)
	sv.Set("base", 100)
	sv.Set("app", 100)
	in := &Input{
		Repo:   repo,
		Survey: sv,
		Footprints: bitsOf(map[string]footprint.Set{
			"base": set(linuxapi.Sys("reboot")), // unsupported below
			"app":  set(linuxapi.Sys("read")),
		}),
	}
	supported := set(linuxapi.Sys("read"))
	opts := CompletenessOptions{Kind: linuxapi.KindSyscall}
	// app's own footprint is fine, but its dependency base is broken.
	if wc := WeightedCompleteness(in, supported, opts); !almost(wc, 0) {
		t.Errorf("WC with propagation = %v, want 0", wc)
	}
	opts.NoDependencyPropagation = true
	if wc := WeightedCompleteness(in, supported, opts); !almost(wc, 0.5) {
		t.Errorf("WC without propagation = %v, want 0.5", wc)
	}
}

func TestGreedyPath(t *testing.T) {
	in := fixture()
	path := GreedyPath(in, linuxapi.KindSyscall)
	// Universe of syscalls: read, write, ioctl, reboot, kexec_load.
	if len(path) != 5 {
		t.Fatalf("path length = %d, want 5", len(path))
	}
	// read and write (importance ~1) come first; read before write by
	// unweighted tie-break (read used by 2 packages, write by 1).
	if path[0].API != linuxapi.Sys("read") || path[1].API != linuxapi.Sys("write") {
		t.Errorf("path head = %v %v", path[0].API, path[1].API)
	}
	if path[2].API != linuxapi.Sys("ioctl") || path[3].API != linuxapi.Sys("reboot") {
		t.Errorf("path middle = %v %v", path[2].API, path[3].API)
	}
	if path[4].API != linuxapi.Sys("kexec_load") || path[4].Importance != 0 {
		t.Errorf("path tail = %+v", path[4])
	}
	// Completeness is monotone and ends at 1.0 (every package with weight
	// becomes supported once all syscalls are in).
	for i := 1; i < len(path); i++ {
		if path[i].Completeness < path[i-1].Completeness {
			t.Errorf("completeness not monotone at %d: %v < %v",
				i, path[i].Completeness, path[i-1].Completeness)
		}
	}
	if !almost(path[4].Completeness, 1.0) {
		t.Errorf("final completeness = %v, want 1", path[4].Completeness)
	}
	// After read+write: libc6 supported (weight 1 of 1.6). tool's demand
	// includes ioctl (rank 3) but its TCGETS is not a syscall and must not
	// matter here.
	if !almost(path[1].Completeness, 1.0/1.6) {
		t.Errorf("WC after 2 = %v, want %v", path[1].Completeness, 1.0/1.6)
	}
	if !almost(path[2].Completeness, 1.5/1.6) {
		t.Errorf("WC after 3 = %v, want %v", path[2].Completeness, 1.5/1.6)
	}
}

func TestGreedyPathDependencyPropagation(t *testing.T) {
	repo := apt.NewRepository()
	repo.Add(&apt.Package{Name: "base"})
	repo.Add(&apt.Package{Name: "app", Depends: []string{"base"}})
	sv := popcon.NewSurvey(100)
	sv.Set("base", 10)
	sv.Set("app", 100)
	in := &Input{
		Repo:   repo,
		Survey: sv,
		Footprints: bitsOf(map[string]footprint.Set{
			"base": set(linuxapi.Sys("reboot")),
			"app":  set(linuxapi.Sys("read")),
		}),
	}
	path := GreedyPath(in, linuxapi.KindSyscall)
	// read ranks first (importance 1.0 vs reboot 0.1+) but app only
	// becomes supported once base's reboot is supported too.
	if path[0].API != linuxapi.Sys("read") {
		t.Fatalf("path[0] = %v", path[0].API)
	}
	if path[0].Completeness != 0 {
		t.Errorf("WC after read alone = %v, want 0 (dependency demand)", path[0].Completeness)
	}
	if !almost(path[1].Completeness, 1.0) {
		t.Errorf("WC after both = %v, want 1", path[1].Completeness)
	}
}

func TestStages(t *testing.T) {
	in := fixture()
	path := GreedyPath(in, linuxapi.KindSyscall)
	stages := Stages(path, []int{2, 4}, 10)
	if len(stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(stages))
	}
	if stages[0].Label != "I" || stages[0].Added != 2 || stages[0].LastN != 2 {
		t.Errorf("stage I = %+v", stages[0])
	}
	if stages[1].Label != "II" || stages[1].FirstN != 3 || stages[1].Added != 2 {
		t.Errorf("stage II = %+v", stages[1])
	}
	if stages[2].Added != 1 || !almost(stages[2].Completeness, 1.0) {
		t.Errorf("stage III = %+v", stages[2])
	}
	// Boundaries beyond the path length collapse gracefully.
	stages = Stages(path, []int{2, 99}, 2)
	if len(stages) != 2 || stages[1].LastN != 5 {
		t.Errorf("clamped stages = %+v", stages)
	}
}

func TestCurveAndCountAbove(t *testing.T) {
	imp := Importance(fixture())
	apis, vals := Curve(imp, linuxapi.KindSyscall)
	if len(apis) != 5 {
		t.Fatalf("curve has %d apis", len(apis))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			t.Errorf("curve not descending at %d", i)
		}
	}
	if n := CountAbove(vals, 0.999); n != 2 {
		t.Errorf("CountAbove(0.999) = %d, want 2 (read, write)", n)
	}
	if n := CountAbove(vals, 0.05); n != 4 {
		t.Errorf("CountAbove(0.05) = %d, want 4", n)
	}
}

func TestUsersAndAttribution(t *testing.T) {
	in := fixture()
	users := in.UsersOf(linuxapi.Sys("read"))
	if len(users) != 2 || users[0] != "libc6" || users[1] != "tool" {
		t.Errorf("UsersOf(read) = %v", users)
	}
	direct := in.DirectUsersOf(linuxapi.Ioctl("TCGETS"))
	if len(direct) != 1 || direct[0] != "tool" {
		t.Errorf("DirectUsersOf(TCGETS) = %v", direct)
	}
	if got := in.DirectUsersOf(linuxapi.Sys("reboot")); len(got) != 0 {
		t.Errorf("DirectUsersOf(reboot) = %v", got)
	}
	uni := in.Universe()
	if len(uni) != 6 {
		t.Errorf("Universe = %v", uni)
	}
}

func TestRecord(t *testing.T) {
	db := store.NewDB()
	in := fixture()
	tbl := Record(db, in)
	if tbl.PkgAPI.Len() != 7 {
		t.Errorf("pkg_api rows = %d, want 7", tbl.PkgAPI.Len())
	}
	rows := tbl.ByAPI.Lookup(linuxapi.Sys("read").String())
	if len(rows) != 2 {
		t.Errorf("read rows = %v", rows)
	}
	rows = tbl.ByPkg.Lookup("tool")
	if len(rows) != 3 {
		t.Errorf("tool rows = %v", rows)
	}
	var direct int
	for _, r := range rows {
		if r.Direct {
			direct++
		}
	}
	if direct != 1 {
		t.Errorf("tool direct rows = %d, want 1 (TCGETS)", direct)
	}
	tables, totalRows := db.Stats()
	if tables != 3 || totalRows != 7+4+2 {
		t.Errorf("db stats = %d tables %d rows", tables, totalRows)
	}
}

// TestRecordStatsMatchesStore pins Table 12's counts to the store: the
// relations and rows RecordStats reports are what Record loads.
func TestRecordStatsMatchesStore(t *testing.T) {
	repo := apt.NewRepository()
	repo.Add(&apt.Package{Name: "app", Depends: []string{"libc6", "not-in-corpus"}})
	repo.Add(&apt.Package{Name: "libc6"})
	sv := popcon.NewSurvey(10)
	sv.Set("app", 5)
	orphan := &Input{
		Repo:   repo,
		Survey: sv,
		Footprints: bitsOf(map[string]footprint.Set{
			"app":    set(linuxapi.Sys("read"), linuxapi.Pseudo("/proc/self/maps")),
			"libc6":  set(linuxapi.Sys("read"), linuxapi.Sys("write")),
			"no-pkg": set(linuxapi.Sys("reboot")),
			"empty":  set(),
		}),
		Direct: bitsOf(map[string]footprint.Set{"app": set(linuxapi.Sys("read"))}),
	}
	for name, in := range map[string]*Input{
		"fixture":  fixture(),
		"orphans":  orphan,
		"no-repo":  {Survey: sv, Footprints: bitsOf(map[string]footprint.Set{"x": set(linuxapi.Sys("read"))})},
		"no-input": {Survey: sv},
	} {
		db := store.NewDB()
		Record(db, in)
		wantTables, wantRows := db.Stats()
		if tables, rows := RecordStats(in); tables != wantTables || rows != wantRows {
			t.Errorf("%s: RecordStats = %d tables %d rows, store has %d/%d",
				name, tables, rows, wantTables, wantRows)
		}
	}
}

func TestImportanceBounds(t *testing.T) {
	f := func(counts []uint16) bool {
		sv := popcon.NewSurvey(1 << 16)
		fps := make(map[string]footprint.Set)
		for i, c := range counts {
			name := "p" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
			sv.Set(name, int64(c))
			fps[name] = set(linuxapi.Sys("read"))
		}
		in := &Input{Survey: sv, Footprints: bitsOf(fps)}
		for _, v := range Importance(in) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		for _, v := range Unweighted(in) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWeightedCompletenessMonotoneInSupport(t *testing.T) {
	in := fixture()
	opts := CompletenessOptions{Kind: linuxapi.KindSyscall}
	sets := [][]linuxapi.API{
		{},
		{linuxapi.Sys("read")},
		{linuxapi.Sys("read"), linuxapi.Sys("write")},
		{linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("ioctl")},
		{linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("ioctl"), linuxapi.Sys("reboot")},
	}
	prev := -1.0
	for _, apis := range sets {
		wc := WeightedCompleteness(in, set(apis...), opts)
		if wc < prev {
			t.Errorf("WC decreased when support grew: %v after %v", wc, prev)
		}
		prev = wc
	}
}

func TestGreedyPathAll(t *testing.T) {
	in := fixture()
	path := GreedyPathAll(in)
	// Universe: 6 APIs (5 syscalls + TCGETS).
	if len(path) != 6 {
		t.Fatalf("full path length = %d, want 6", len(path))
	}
	var sawIoctlCode bool
	for _, p := range path {
		if p.API == linuxapi.Ioctl("TCGETS") {
			sawIoctlCode = true
		}
	}
	if !sawIoctlCode {
		t.Error("full path missing the vectored opcode")
	}
	if !almost(path[len(path)-1].Completeness, 1.0) {
		t.Errorf("final completeness = %v", path[len(path)-1].Completeness)
	}
	for i := 1; i < len(path); i++ {
		if path[i].Completeness < path[i-1].Completeness {
			t.Fatalf("not monotone at %d", i)
		}
	}
	// tool needs TCGETS too: completeness for tool only counted once both
	// ioctl and TCGETS are supported.
	pos := map[linuxapi.API]int{}
	for i, p := range path {
		pos[p.API] = i
	}
	toolReady := pos[linuxapi.Sys("ioctl")]
	if pos[linuxapi.Ioctl("TCGETS")] > toolReady {
		toolReady = pos[linuxapi.Ioctl("TCGETS")]
	}
	if !almost(path[toolReady].Completeness, 1.5/1.6) {
		t.Errorf("completeness after tool's full needs = %v, want %v",
			path[toolReady].Completeness, 1.5/1.6)
	}
}
