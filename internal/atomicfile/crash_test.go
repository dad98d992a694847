package atomicfile_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/anacache"
	"repro/internal/atomicfile"
	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/stubplan"
)

// The crash tests re-run this test binary as a child that performs one
// owner operation while atomicfile.Hook SIGKILLs it before a chosen step
// of a chosen write, then open a fresh owner over the same directory and
// check what it recovers. A process crash never loses the page cache, so
// these tests cannot show a power loss; TestStepOrder pins the fsync
// order that covers one.

// crashEnv carries "<case> <step> <dir>" to a child.
const crashEnv = "ATOMICFILE_CRASH"

var (
	durableSteps = []string{"create", "write", "sync", "close", "rename", "syncdir"}
	atomicSteps  = []string{"create", "write", "close", "rename"}
)

// crashCase is one owner operation and the write to kill it in.
type crashCase struct {
	name  string
	steps []string
	// target picks the write to kill: the first write, after run arms
	// the hook, that reaches the step and whose destination it accepts.
	target func(path string) bool
	// run performs the operation in the child over dir.
	run func(t *testing.T, dir string, arm func())
	// check opens a fresh owner over dir after a kill before step of
	// the write to killed, and checks what it recovers.
	check func(t *testing.T, dir, step, killed string)
}

func crashCases() []crashCase {
	inDir := func(d string) func(string) bool {
		return func(p string) bool { return filepath.Base(filepath.Dir(p)) == d }
	}
	named := func(name string) func(string) bool {
		return func(p string) bool { return filepath.Base(p) == name }
	}
	summary := func(p string) bool {
		return strings.HasSuffix(p, ".json") && !strings.HasSuffix(p, ".verdict.json")
	}
	verdict := func(p string) bool { return strings.HasSuffix(p, ".verdict.json") }
	return []crashCase{
		{"spool-submit", durableSteps, inDir("jobs"), spoolSubmit, checkSpoolSubmit},
		{"spool-result", durableSteps, inDir("results"), spoolFinish, checkSpoolFinish},
		{"spool-done", durableSteps, inDir("jobs"), spoolFinish, checkSpoolFinish},
		{"snapshot-install-file", durableSteps, named("gen-0000000000000002.snap"), snapshotInstall, checkSnapshot},
		{"snapshot-install-commit", durableSteps, named("current"), snapshotInstall, checkSnapshot},
		{"snapshot-rollback", durableSteps, named("current"), snapshotRollback, checkSnapshot},
		{"anacache-summary", atomicSteps, summary, cacheSummaries, checkCacheSummaries},
		{"anacache-verdict", atomicSteps, verdict, cacheVerdicts, checkCacheVerdicts},
	}
}

var killedRE = regexp.MustCompile(`(?m)^killed before (\S+) of (.+)$`)

// TestCrashEveryStep kills each owner before each step of its write and
// restarts it. Children run one at a time.
func TestCrashEveryStep(t *testing.T) {
	if spec := os.Getenv(crashEnv); spec != "" {
		crashChild(t, spec)
		return
	}
	if testing.Short() {
		t.Skip("subprocess test")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range crashCases() {
		for _, step := range c.steps {
			t.Run(c.name+"/"+step, func(t *testing.T) {
				dir := t.TempDir()
				cmd := exec.Command(exe, "-test.run=^TestCrashEveryStep$", "-test.count=1")
				cmd.Env = append(os.Environ(), crashEnv+"="+c.name+" "+step+" "+dir)
				out, err := cmd.CombinedOutput()
				m := killedRE.FindSubmatch(out)
				if err == nil || m == nil || string(m[1]) != step {
					t.Fatalf("child was not killed before %s (%v):\n%s", step, err, out)
				}
				c.check(t, dir, step, string(m[2]))
			})
		}
	}
}

// crashChild arms the hook to SIGKILL this process and runs the case.
func crashChild(t *testing.T, spec string) {
	f := strings.SplitN(spec, " ", 3)
	i := slices.IndexFunc(crashCases(), func(c crashCase) bool { return c.name == f[0] })
	if len(f) != 3 || i < 0 {
		t.Fatalf("bad %s=%q", crashEnv, spec)
	}
	c, step, dir := crashCases()[i], f[1], f[2]
	var armed atomic.Bool
	atomicfile.Hook = func(s, path string) {
		if armed.Load() && s == step && c.target(path) {
			fmt.Printf("killed before %s of %s\n", s, path)
			self, _ := os.FindProcess(os.Getpid())
			self.Kill()
			time.Sleep(time.Minute)
		}
	}
	c.run(t, dir, func() { armed.Store(true) })
	t.Fatal("the operation finished without reaching the step")
}

// noTemp fails if a temp file is left in any of dirs.
func noTemp(t *testing.T, dirs ...string) {
	t.Helper()
	for _, d := range dirs {
		ents, _ := os.ReadDir(d)
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), atomicfile.TempPrefix) {
				t.Errorf("temp file %s left in %s", e.Name(), d)
			}
		}
	}
}

// Spool: one "work" job that echoes its params.

var jobParams = json.RawMessage(`{"n":1}`)

func jobID(t *testing.T) string {
	canon, err := jobs.Canonicalize(jobParams)
	if err != nil {
		t.Fatal(err)
	}
	return jobs.IDFor(jobs.Fingerprint("work", canon))
}

type echoJob struct {
	runs   *atomic.Int64
	before func()
}

func (echoJob) Type() string { return "work" }
func (e echoJob) Execute(_ context.Context, p json.RawMessage) (any, error) {
	e.runs.Add(1)
	e.before()
	return p, nil
}

func startSpool(t *testing.T, dir string, before func()) (*jobs.Manager, *atomic.Int64) {
	runs := new(atomic.Int64)
	m := jobs.New(jobs.Config{SpoolDir: dir, Workers: 1})
	if err := m.Register(echoJob{runs, before}); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	return m, runs
}

func spoolSubmit(t *testing.T, dir string, arm func()) {
	m, _ := startSpool(t, dir, func() {})
	arm()
	m.Submit("work", jobParams, jobs.SubmitOptions{})
}

// spoolFinish arms the hook once the job has computed its result, so
// the kill lands in the result write or the done record's write.
func spoolFinish(t *testing.T, dir string, arm func()) {
	m, _ := startSpool(t, dir, arm)
	if _, _, err := m.Submit("work", jobParams, jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	m.Wait(context.Background(), jobID(t), time.Minute)
}

func checkSpoolSubmit(t *testing.T, dir, step, _ string) {
	m, runs := startSpool(t, dir, func() {})
	defer m.Close()
	_, ok := m.Get(jobID(t))
	// Submit answers 202 after the record's write returns: before the
	// rename nothing was promised and nothing may appear.
	if want := step == "syncdir"; ok != want {
		t.Fatalf("job present after restart = %v, want %v", ok, want)
	}
	if ok {
		checkJobDone(t, m)
		if runs.Load() != 1 {
			t.Errorf("job ran %d times after restart, want 1", runs.Load())
		}
	}
	noTemp(t, filepath.Join(dir, "jobs"), filepath.Join(dir, "results"))
}

func checkSpoolFinish(t *testing.T, dir, step, killed string) {
	var rec jobs.Job
	raw, err := os.ReadFile(filepath.Join(dir, "jobs", jobID(t)+".json"))
	if err == nil {
		err = json.Unmarshal(raw, &rec)
	}
	if err != nil {
		t.Fatalf("job record after the kill: %v", err)
	}
	_, err = os.Stat(filepath.Join(dir, "results", jobID(t)+".json"))
	if rec.State == jobs.StateDone && err != nil {
		t.Fatalf("done record without a result on disk: %v", err)
	}
	doneLanded := filepath.Base(filepath.Dir(killed)) == "jobs" && step == "syncdir"
	if (rec.State == jobs.StateDone) != doneLanded {
		t.Fatalf("record state %s after a kill before %s of %s", rec.State, step, killed)
	}
	m, runs := startSpool(t, dir, func() {})
	defer m.Close()
	checkJobDone(t, m)
	// The job's own writes are over once it is done; a temp file now
	// would be the killed write's.
	noTemp(t, filepath.Join(dir, "jobs"), filepath.Join(dir, "results"))
	// A landed done record serves its result; anything else re-runs.
	if want := map[bool]int64{true: 0, false: 1}[doneLanded]; runs.Load() != want {
		t.Errorf("job ran %d times after restart, want %d", runs.Load(), want)
	}
}

func checkJobDone(t *testing.T, m *jobs.Manager) {
	t.Helper()
	j, err := m.Wait(context.Background(), jobID(t), time.Minute)
	if err != nil || j.State != jobs.StateDone {
		t.Fatalf("job after restart = %+v, %v; want done", j, err)
	}
	res, _, err := m.Result(j.ID)
	if err != nil || string(res) != string(jobParams) {
		t.Fatalf("result after restart = %s, %v; want %s", res, err, jobParams)
	}
}

// Snapshot directory: generation 1 is study A, generation 2 study B.

var (
	snapOnce sync.Once
	snapA    *repro.Study
	snapB    *repro.Study
	snapErr  error
)

func snapStudies(t *testing.T) (*repro.Study, *repro.Study) {
	snapOnce.Do(func() {
		snapA, snapErr = repro.NewStudy(repro.Config{Packages: 20, Installations: 100000, Seed: 41})
		if snapErr == nil {
			snapB, snapErr = repro.NewStudy(repro.Config{Packages: 20, Installations: 100000, Seed: 42})
		}
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return snapA, snapB
}

func snapManager(t *testing.T, dir string) (*service.Service, *service.SnapshotManager) {
	svc := service.New(repro.EmptyStudy(), "awaiting-snapshot", service.Config{})
	mgr, err := service.NewSnapshotManager(svc, filepath.Join(dir, "snaps"))
	if err != nil {
		t.Fatal(err)
	}
	return svc, mgr
}

func install(t *testing.T, mgr *service.SnapshotManager, s *repro.Study, gen uint64) {
	raw, err := s.EncodeSnapshot(gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install(raw); err != nil {
		t.Fatal(err)
	}
}

func snapshotInstall(t *testing.T, dir string, arm func()) {
	a, b := snapStudies(t)
	_, mgr := snapManager(t, dir)
	install(t, mgr, a, 1)
	arm()
	install(t, mgr, b, 2)
}

func snapshotRollback(t *testing.T, dir string, arm func()) {
	a, b := snapStudies(t)
	_, mgr := snapManager(t, dir)
	install(t, mgr, a, 1)
	install(t, mgr, b, 2)
	arm()
	mgr.Rollback()
}

// checkSnapshot restarts the manager: it must serve the generation the
// killed one last committed, with the other committed one as previous,
// and keep only those files.
func checkSnapshot(t *testing.T, dir, step, killed string) {
	a, b := snapStudies(t)
	svc, mgr := snapManager(t, dir)
	if _, err := mgr.OpenLatest(); err != nil {
		t.Fatalf("OpenLatest: %v", err)
	}
	noTemp(t, filepath.Join(dir, "snaps"))
	committed := filepath.Base(killed) == "current" && step == "syncdir"
	rollback := strings.Contains(t.Name(), "rollback")
	cur, prev := uint64(1), uint64(0) // an install killed before its commit
	switch {
	case rollback && committed:
		cur, prev = 1, 2
	case rollback || committed:
		cur, prev = 2, 1
	}
	st := mgr.Status()
	if st.Current == nil || st.Current.Generation != cur ||
		(st.Previous == nil) != (prev == 0) || (st.Previous != nil && st.Previous.Generation != prev) {
		t.Fatalf("after restart current %+v previous %+v; want generation %d, previous %d",
			st.Current, st.Previous, cur, prev)
	}
	if fp, want := svc.Snapshot().Meta.Fingerprint, []*repro.Study{a, b}[cur-1].Fingerprint(); fp != want {
		t.Errorf("serving %s, want %s", fp, want)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "snaps", "gen-*.snap"))
	if want := map[bool]int{true: 1, false: 2}[prev == 0]; len(files) != want {
		t.Errorf("generation files after restart: %v, want %d", files, want)
	}
}

// Analysis cache: a 12-package corpus through the pipeline and the
// verdict matrix.

var corpusCfg = corpus.Config{Packages: 12, Installations: 1 << 20, Seed: 5}

var (
	coldOnce   sync.Once
	coldReport string
	coldMatrix *stubplan.Matrix
	coldErr    error
)

func cold(t *testing.T) (string, *stubplan.Matrix) {
	coldOnce.Do(func() {
		var s *repro.Study
		if s, coldErr = studyOver(nil); coldErr == nil {
			coldReport = s.ReportAll()
			coldMatrix = stubplan.BuildMatrix(s.Core(), stubplan.Options{})
		}
	})
	if coldErr != nil {
		t.Fatal(coldErr)
	}
	return coldReport, coldMatrix
}

func studyOver(cache *anacache.Cache) (*repro.Study, error) {
	c, err := corpus.Generate(corpusCfg)
	if err != nil {
		return nil, err
	}
	return repro.NewStudyOverCorpus(c, cache, nil)
}

func openCache(t *testing.T, dir string) *anacache.Cache {
	c, err := anacache.Open(filepath.Join(dir, "cache"), footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func cacheSummaries(t *testing.T, dir string, arm func()) {
	arm()
	studyOver(openCache(t, dir))
}

func cacheVerdicts(t *testing.T, dir string, arm func()) {
	cache := openCache(t, dir)
	s, err := studyOver(cache)
	if err != nil {
		t.Fatal(err)
	}
	arm()
	stubplan.BuildMatrix(s.Core(), stubplan.Options{Cache: cache, Workers: 1})
}

// recordKey recovers a record's content key from its sharded path.
func recordKey(path string) string {
	name := strings.TrimSuffix(strings.TrimSuffix(filepath.Base(path), ".json"), ".verdict")
	return filepath.Base(filepath.Dir(path)) + name
}

func checkCacheSummaries(t *testing.T, dir, _, killed string) {
	report, _ := cold(t)
	c, err := corpus.Generate(corpusCfg)
	if err != nil {
		t.Fatal(err)
	}
	var data []byte
	for _, name := range c.Repo.Names() {
		for _, f := range c.Repo.Get(name).Files {
			if anacache.Key(f.Data) == recordKey(killed) {
				data = f.Data
			}
		}
	}
	if data == nil {
		t.Fatalf("no corpus binary has the key of %s", killed)
	}
	cache := openCache(t, dir)
	if sum, ok := cache.Get(data); ok {
		t.Fatalf("killed record served: %+v", sum)
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("lookup of the killed record: %+v, want one counted miss", st)
	}
	s, err := repro.NewStudyOverCorpus(c, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.ReportAll() != report {
		t.Error("study after re-analysis differs from the cold one")
	}
	if st := cache.Stats(); st.Invalidations != 0 {
		t.Errorf("torn records after restart: %+v", st)
	}
}

func checkCacheVerdicts(t *testing.T, dir, _, killed string) {
	_, matrix := cold(t)
	cache := openCache(t, dir)
	var bv stubplan.BinaryVerdicts
	if cache.GetVerdicts(recordKey(killed), stubplan.VerdictTag(footprint.Options{}), &bv) {
		t.Fatalf("killed verdict record served: %+v", bv)
	}
	if st := cache.Stats(); st.VerdictMisses != 1 {
		t.Fatalf("lookup of the killed record: %+v, want one counted miss", st)
	}
	s, err := studyOver(cache)
	if err != nil {
		t.Fatal(err)
	}
	m := stubplan.BuildMatrix(s.Core(), stubplan.Options{Cache: cache})
	if !reflect.DeepEqual(m.Waivable, matrix.Waivable) || !reflect.DeepEqual(m.FakeNeeded, matrix.FakeNeeded) {
		t.Error("verdicts after re-emulation differ from the cold ones")
	}
	if st := cache.Stats(); st.VerdictInvalidations != 0 {
		t.Errorf("torn verdict records after restart: %+v", st)
	}
}
