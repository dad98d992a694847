package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/linuxapi"
	"repro/internal/snapshot"
)

// writeTestSnapshot encodes study at gen into dir and returns the path.
func writeTestSnapshot(t *testing.T, study *repro.Study, dir string, gen uint64) string {
	t.Helper()
	path := filepath.Join(dir, "study.snap")
	if err := study.WriteSnapshot(path, gen); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return path
}

func TestLoadSnapshotFileSwapsAtFileGeneration(t *testing.T) {
	a, _ := testStudies(t)
	svc := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	path := writeTestSnapshot(t, a, t.TempDir(), 1)

	// The empty gen-1 study is cached under generation-1 keys; the pushed
	// snapshot reuses generation 1, so the swap must clear the cache.
	before, err := as[GreedyPrefixResult](svc.PathBytes(-1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Syscalls) != 0 {
		t.Fatalf("empty study served a path: %v", before.Syscalls)
	}

	gen, err := svc.LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if gen != 1 || svc.Generation() != 1 {
		t.Fatalf("generation = %d/%d, want 1 (the file's)", gen, svc.Generation())
	}
	snap := svc.Snapshot()
	if snap.File != path {
		t.Errorf("Snapshot.File = %q, want %q", snap.File, path)
	}
	if snap.Meta.Fingerprint != a.Fingerprint() {
		t.Errorf("fingerprint = %q, want %q", snap.Meta.Fingerprint, a.Fingerprint())
	}
	after, err := as[GreedyPrefixResult](svc.PathBytes(-1, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Syscalls) != 5 {
		t.Fatalf("stale cache: post-swap path = %v (want 5 syscalls)", after.Syscalls)
	}
	st := svc.Stats()
	if st.SnapshotLoads != 1 || st.SnapshotLoadErrors != 0 {
		t.Errorf("stats = loads %d errors %d, want 1/0", st.SnapshotLoads, st.SnapshotLoadErrors)
	}
}

func TestSnapshotServedAnswersMatchInProcess(t *testing.T) {
	a, _ := testStudies(t)
	ref := New(a, "in-process", Config{})
	path := writeTestSnapshot(t, a, t.TempDir(), 1)
	svc := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	if _, err := svc.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}

	names := []string{"read", "write", "open", "close", "mmap", "futex"}
	got, err := as[CompletenessResult](svc.CompletenessBytes(-1, names))
	if err != nil {
		t.Fatal(err)
	}
	want, err := as[CompletenessResult](ref.CompletenessBytes(-1, names))
	if err != nil {
		t.Fatal(err)
	}
	if got.Completeness != want.Completeness || got.Generation != want.Generation {
		t.Errorf("completeness %v gen %d, want %v gen %d",
			got.Completeness, got.Generation, want.Completeness, want.Generation)
	}
	gi, err := as[ImportanceResult](svc.ImportanceBytes(-1, "read"))
	if err != nil {
		t.Fatal(err)
	}
	wi, err := as[ImportanceResult](ref.ImportanceBytes(-1, "read"))
	if err != nil {
		t.Fatal(err)
	}
	if gi != wi {
		t.Errorf("importance: got %+v want %+v", gi, wi)
	}
}

func TestReloadSnapshotFallsBackToCorpus(t *testing.T) {
	a, _ := testStudies(t)
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpus")
	if err := a.SaveCorpus(corpusDir); err != nil {
		t.Fatal(err)
	}
	path := writeTestSnapshot(t, a, dir, 5)
	// Corrupt the snapshot body: validation must reject it and the
	// service must rebuild from the corpus instead.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svc := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	gen, err := svc.ReloadSnapshot(path, corpusDir)
	if err != nil {
		t.Fatalf("ReloadSnapshot with fallback: %v", err)
	}
	if gen == 0 {
		t.Fatal("fallback returned generation 0")
	}
	st := svc.Stats()
	if st.SnapshotLoadErrors != 1 || st.SnapshotFallbacks != 1 || st.SnapshotLoads != 0 {
		t.Errorf("stats = loads %d errors %d fallbacks %d, want 0/1/1",
			st.SnapshotLoads, st.SnapshotLoadErrors, st.SnapshotFallbacks)
	}
	if fp := svc.Snapshot().Meta.Fingerprint; fp != a.Fingerprint() {
		t.Errorf("fallback served fingerprint %q, want corpus %q", fp, a.Fingerprint())
	}

	// Without a fallback the corrupt file is a hard, typed error and the
	// served study is untouched.
	svc2 := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	if _, err := svc2.ReloadSnapshot(path, ""); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("ReloadSnapshot without fallback: %v, want ErrCorrupt", err)
	}
	if svc2.Snapshot().Source != "awaiting-snapshot" {
		t.Error("corrupt snapshot replaced the served study")
	}
}

func TestSnapshotManagerInstallRollback(t *testing.T) {
	a, b := testStudies(t)
	svc := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	dir := t.TempDir()
	mgr, err := NewSnapshotManager(svc, dir)
	if err != nil {
		t.Fatal(err)
	}

	gen1, err := a.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := mgr.Install(gen1)
	if err != nil {
		t.Fatalf("Install gen 1: %v", err)
	}
	if info.Generation != 1 || info.Fingerprint != a.Fingerprint() {
		t.Fatalf("install info = %+v", info)
	}
	if svc.Generation() != 1 {
		t.Fatalf("serving generation %d, want 1", svc.Generation())
	}

	// Idempotent re-push of the identical generation.
	if _, err := mgr.Install(gen1); err != nil {
		t.Fatalf("re-push of current generation: %v", err)
	}

	// A different snapshot at a non-advancing generation is stale.
	stale, err := b.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install(stale); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("stale push: %v, want ErrStaleGeneration", err)
	}

	// Corrupt bytes are rejected with the snapshot's typed error.
	bad := append([]byte(nil), gen1...)
	bad[len(bad)-1] ^= 0x40
	if _, err := mgr.Install(bad); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("corrupt push: %v, want ErrCorrupt", err)
	}

	gen2, err := b.EncodeSnapshot(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install(gen2); err != nil {
		t.Fatalf("Install gen 2: %v", err)
	}
	if fp := svc.Snapshot().Meta.Fingerprint; fp != b.Fingerprint() {
		t.Fatalf("serving %q, want study B %q", fp, b.Fingerprint())
	}

	back, err := mgr.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if back.Generation != 1 {
		t.Fatalf("rollback to generation %d, want 1", back.Generation)
	}
	if fp := svc.Snapshot().Meta.Fingerprint; fp != a.Fingerprint() {
		t.Fatalf("after rollback serving %q, want study A %q", fp, a.Fingerprint())
	}
	if svc.Generation() != 1 {
		t.Errorf("after rollback generation %d, want 1", svc.Generation())
	}

	st := mgr.Status()
	if st.Installs != 2 || st.Rollbacks != 1 || st.RejectedStale != 1 || st.RejectedCorrupt != 1 {
		t.Errorf("manager counters = %+v", st)
	}
	if st.Current == nil || st.Current.Generation != 1 || st.Previous == nil || st.Previous.Generation != 2 {
		t.Errorf("manager generations = current %+v previous %+v", st.Current, st.Previous)
	}
}

func TestSnapshotManagerOpenLatest(t *testing.T) {
	a, b := testStudies(t)
	dir := t.TempDir()
	// Two generations on disk, newest wins; a corrupt newest is skipped.
	if err := a.WriteSnapshot(genPath(dir, 3), 3); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteSnapshot(genPath(dir, 4), 4); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(genPath(dir, 5), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	mgr, err := NewSnapshotManager(svc, dir)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := mgr.OpenLatest()
	if err != nil {
		t.Fatalf("OpenLatest: %v", err)
	}
	if gen != 4 || svc.Generation() != 4 {
		t.Fatalf("adopted generation %d (serving %d), want 4", gen, svc.Generation())
	}
	if fp := svc.Snapshot().Meta.Fingerprint; fp != b.Fingerprint() {
		t.Errorf("adopted fingerprint %q, want %q", fp, b.Fingerprint())
	}

	empty := t.TempDir()
	mgr2, err := NewSnapshotManager(svc, empty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr2.OpenLatest(); !errors.Is(err, ErrNoPrevious) {
		t.Fatalf("OpenLatest on empty dir: %v, want ErrNoPrevious", err)
	}
}

// restartManager opens a fresh service and manager over dir, as a
// restarted replica does, and adopts what the directory commits.
func restartManager(t *testing.T, dir string) (*Service, *SnapshotManager) {
	t.Helper()
	svc := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	mgr, err := NewSnapshotManager(svc, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.OpenLatest(); err != nil && !errors.Is(err, ErrNoPrevious) {
		t.Fatalf("OpenLatest: %v", err)
	}
	return svc, mgr
}

func installStudy(t *testing.T, mgr *SnapshotManager, s *repro.Study, gen uint64) {
	t.Helper()
	raw, err := s.EncodeSnapshot(gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Install(raw); err != nil {
		t.Fatalf("Install gen %d: %v", gen, err)
	}
}

// TestSnapshotRollbackSurvivesRestart rolls back, restarts, and checks
// that the restarted manager serves the rolled-back-to generation with
// the rolled-back-from one as previous, so a second rollback still
// undoes the first.
func TestSnapshotRollbackSurvivesRestart(t *testing.T) {
	a, b := testStudies(t)
	dir := t.TempDir()
	_, mgr := restartManager(t, dir)
	installStudy(t, mgr, a, 1)
	installStudy(t, mgr, b, 2)
	if _, err := mgr.Rollback(); err != nil {
		t.Fatal(err)
	}

	svc, mgr := restartManager(t, dir)
	if gen, fp := svc.Generation(), svc.Snapshot().Meta.Fingerprint; gen != 1 || fp != a.Fingerprint() {
		t.Fatalf("after restart serving generation %d (%s), want 1 (study A)", gen, fp)
	}
	if st := mgr.Status(); st.Previous == nil || st.Previous.Generation != 2 || st.Previous.Fingerprint != b.Fingerprint() {
		t.Fatalf("after restart previous = %+v, want generation 2 (study B)", st.Previous)
	}
	if _, err := mgr.Rollback(); err != nil {
		t.Fatalf("second rollback: %v", err)
	}
	if gen, fp := svc.Generation(), svc.Snapshot().Meta.Fingerprint; gen != 2 || fp != b.Fingerprint() {
		t.Fatalf("second rollback serves generation %d (%s), want 2 (study B)", gen, fp)
	}
	svc, _ = restartManager(t, dir)
	if gen := svc.Generation(); gen != 2 {
		t.Fatalf("restart after the second rollback serves generation %d, want 2", gen)
	}
}

// TestSnapshotRestartKeepsTwoGenerations checks that a restarted
// manager keeps exactly the current and previous generations on disk
// across further installs.
func TestSnapshotRestartKeepsTwoGenerations(t *testing.T) {
	a, b := testStudies(t)
	dir := t.TempDir()
	_, mgr := restartManager(t, dir)
	installStudy(t, mgr, a, 1)
	installStudy(t, mgr, b, 2)
	if _, err := mgr.Rollback(); err != nil {
		t.Fatal(err)
	}
	for gen := uint64(3); gen <= 4; gen++ {
		_, mgr = restartManager(t, dir)
		installStudy(t, mgr, []*repro.Study{a, b}[gen%2], gen)
		files, err := filepath.Glob(filepath.Join(dir, "gen-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		want := []string{genPath(dir, mgr.Status().Previous.Generation), genPath(dir, gen)}
		if !reflect.DeepEqual(files, want) {
			t.Fatalf("after a restart and installing generation %d the directory holds %v, want %v", gen, files, want)
		}
	}
}

// TestSnapshotInstallDuringQueries races pushes against reads: queries
// must always see a coherent snapshot (run under -race in CI).
func TestSnapshotInstallDuringQueries(t *testing.T) {
	a, b := testStudies(t)
	svc := New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	mgr, err := NewSnapshotManager(svc, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snapA, err := a.EncodeSnapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := b.EncodeSnapshot(2)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := as[CompletenessResult](svc.CompletenessBytes(-1, []string{"read", "write", "openat"})); err != nil {
					t.Error(err)
					return
				}
				if _, err := as[ImportanceResult](svc.ImportanceBytes(-1, "read")); err != nil {
					t.Error(err)
					return
				}
				if _, err := as[GreedyPrefixResult](svc.PathBytes(-1, 10)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	if _, err := mgr.Install(snapA); err != nil {
		t.Error(err)
	}
	if _, err := mgr.Install(snapB); err != nil {
		t.Error(err)
	}
	if _, err := mgr.Rollback(); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()
	if svc.Generation() != 1 {
		t.Errorf("final generation %d, want 1 after rollback", svc.Generation())
	}
}

// servedAndReference writes a snapshot of the test study to path and
// a copy beside it, and returns a replica serving path and a reference
// replica serving the copy, which no test touches.
func servedAndReference(t *testing.T) (a *repro.Study, path string, svc, ref *Service) {
	t.Helper()
	a, _ = testStudies(t)
	dir := t.TempDir()
	path = writeTestSnapshot(t, a, dir, 1)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "ref.snap")
	if err := os.WriteFile(refPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	svc = New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	if _, err := svc.LoadSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	ref = New(repro.EmptyStudy(), "awaiting-snapshot", Config{})
	if _, err := ref.LoadSnapshotFile(refPath); err != nil {
		t.Fatal(err)
	}
	return a, path, svc, ref
}

// fileMappings counts the lines of /proc/self/maps that map path; -1
// where the process has no such file.
func fileMappings(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return -1
	}
	return strings.Count(string(maps), path)
}

// TestSnapshotSwapStormKeepsAnswers swaps the same snapshot file in 60
// times while readers issue completeness and footprint misses (every
// swap empties the byte cache) and one reader holds a Snapshot taken
// before the swaps. Every answer must be byte-identical to a reference
// replica's, the held study must keep answering as before, and no
// mapping of the file may be left behind: swapped-out generations are
// plain heap memory the garbage collector retires.
func TestSnapshotSwapStormKeepsAnswers(t *testing.T) {
	a, path, svc, ref := servedAndReference(t)

	// A query's first answer says "cached": false and its repeats say
	// true; both forms are legal after a swap empties the cache.
	pkgs := a.Packages()[:12]
	type query func(*Service) (Encoded, error)
	var queries []query
	for i, pkg := range pkgs {
		queries = append(queries,
			func(s *Service) (Encoded, error) { return s.FootprintBytes(-1, pkg) },
			func(s *Service) (Encoded, error) {
				return s.CompletenessBytes(-1, []string{"read", "write", extraSyscall(i)})
			})
	}
	want := make([][2][]byte, len(queries))
	for i, q := range queries {
		for j := range want[i] {
			enc, err := q(ref)
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = enc.Body
		}
	}
	check := func(i int) error {
		enc, err := queries[i](svc)
		if err != nil {
			return err
		}
		if !bytes.Equal(enc.Body, want[i][0]) && !bytes.Equal(enc.Body, want[i][1]) {
			return fmt.Errorf("query %d answered %s, want %s", i, enc.Body, want[i][1])
		}
		return nil
	}

	held := svc.Snapshot()
	heldWant := held.Study.PackageFootprint(pkgs[0])
	swapped := make(chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the reader that holds a pre-swap snapshot
		defer wg.Done()
		for range swapped {
			if got := held.Study.PackageFootprint(pkgs[0]); !reflect.DeepEqual(got, heldWant) {
				t.Errorf("held study's footprint changed across a swap: %v, want %v", got, heldWant)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(i % len(queries)); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	const swaps = 60
	for i := 0; i < swaps; i++ {
		if _, err := svc.LoadSnapshotFile(path); err != nil {
			t.Error(err)
			break
		}
		swapped <- struct{}{}
	}
	close(swapped)
	close(stop)
	wg.Wait()
	for i := range queries {
		if err := check(i); err != nil {
			t.Error(err)
		}
	}
	if n := fileMappings(t, path); n > 0 {
		t.Errorf("%d mappings of the snapshot file remain after %d swaps", n, swaps)
	}
}

// extraSyscall returns a syscall other than read and write, distinct
// for each i, so every completeness query below has its own key.
func extraSyscall(i int) string { return linuxapi.Syscalls[20+i].Name }

// TestServedSnapshotFileChangedInPlace serves a snapshot file, then
// overwrites it in place with same-length bytes and finally truncates
// it. The served study was read into memory, so footprint and
// completeness misses after each change answer exactly as a replica
// serving an untouched copy does.
func TestServedSnapshotFileChangedInPlace(t *testing.T) {
	a, path, svc, ref := servedAndReference(t)
	pkgs := a.Packages()
	misses := func(step string, from int) {
		t.Helper()
		for i := from; i < from+8; i++ {
			for _, q := range []func(*Service) (Encoded, error){
				func(s *Service) (Encoded, error) { return s.FootprintBytes(-1, pkgs[i]) },
				func(s *Service) (Encoded, error) {
					return s.CompletenessBytes(-1, []string{"read", "write", extraSyscall(i)})
				},
			} {
				got, err := q(svc)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				want, err := q(ref)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Body, want.Body) {
					t.Errorf("%s: answered %s, want %s", step, got.Body, want.Body)
				}
			}
		}
	}

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{0xff}, int(st.Size())), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	misses("after an in-place overwrite", 0)

	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	misses("after truncation", 8)
}
