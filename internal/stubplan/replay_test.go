package stubplan

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/linuxapi"
)

func images(t *testing.T, s *core.Study) []*elfx.Binary {
	t.Helper()
	var out []*elfx.Binary
	for _, j := range executables(s) {
		bin, err := elfx.Open(j.path, j.data)
		if err != nil {
			t.Fatalf("%s: %v", j.path, err)
		}
		out = append(out, bin)
	}
	if len(out) == 0 {
		t.Fatal("no executables in the fixture")
	}
	return out
}

// watched wraps a policy so every context it is called with is kept.
func watched(p emu.SyscallPolicy, seen *[]emu.SyscallContext) emu.SyscallPolicy {
	return func(ctx emu.SyscallContext) emu.SyscallResult {
		*seen = append(*seen, ctx)
		return p(ctx)
	}
}

// sameEvents reports whether seen carries exactly the events that issued
// num, in order, each with its index.
func sameEvents(seen []emu.SyscallContext, events []emu.SyscallEvent, num int64) bool {
	k := 0
	for i, ev := range events {
		if !ev.KnownNum || ev.Num != num {
			continue
		}
		if k >= len(seen) || seen[k].Index != i || seen[k].Event != ev {
			return false
		}
		k++
	}
	return k == len(seen)
}

// Replaying a recording at a syscall's number must give exactly what a
// run from the entry point gives, for every executable of the fixture,
// every syscall its baseline observed, and every treatment: the stub and
// fake policies the matrix uses, and a non-zero return that flows on
// into later registers. Each policy answers the default at every other
// number, so the run is the run filtered to that number. A replay keeps
// no events, so they are compared as the policy sees them: the run's
// contexts carry the run's events of that number, and the replay's
// contexts must equal the run's.
func TestReplayMatchesRun(t *testing.T) {
	s, _ := fixture(t)
	execs := images(t, s)
	never := func(emu.SyscallContext, string) bool { return false }
	treatments := []struct {
		name   string
		policy func(name string) emu.SyscallPolicy
	}{
		{"stub", stubPolicy},
		{"fake", fakePolicy},
		{"ret", func(name string) emu.SyscallPolicy { return inject(name, 1<<20, never, "") }},
	}

	const workers = 2
	var wg sync.WaitGroup
	var mu sync.Mutex
	var replays int
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := emu.New(s.Resolver)
			n := 0
			for i := w; i < len(execs); i += workers {
				bin := execs[i]
				rec, err := m.Record(bin)
				if err != nil {
					t.Errorf("%s: %v", bin.Path, err)
					continue
				}
				for _, name := range faultTargets(rec.Trace) {
					num := int64(linuxapi.SyscallByName(name).Num)
					for _, tc := range treatments {
						var runSeen, replaySeen []emu.SyscallContext
						m.Policy = watched(tc.policy(name), &runSeen)
						want, err := m.RunImage(bin)
						m.Policy = nil
						if err != nil {
							t.Errorf("%s: %v", bin.Path, err)
							continue
						}
						got, err := m.Replay(rec, num, watched(tc.policy(name), &replaySeen))
						if err != nil {
							t.Errorf("%s: %v", bin.Path, err)
							continue
						}
						if got.Steps != want.Steps || got.Stopped != want.Stopped || got.Events != nil {
							t.Errorf("%s %s %s: replay (stopped %q, %d steps, %d events) differs from run (stopped %q, %d steps)",
								bin.Path, tc.name, name, got.Stopped, got.Steps, len(got.Events), want.Stopped, want.Steps)
						}
						// The policy answers the default at other numbers
						// but still sees them in the run; keep only its
						// number's contexts.
						runSeen = slices.DeleteFunc(runSeen, func(ctx emu.SyscallContext) bool {
							return !ctx.Event.KnownNum || ctx.Event.Num != num
						})
						if !sameEvents(runSeen, want.Events, num) {
							t.Errorf("%s %s %s: the run's %d policy contexts do not carry its events of number %d",
								bin.Path, tc.name, name, len(runSeen), num)
						}
						if !reflect.DeepEqual(replaySeen, runSeen) {
							t.Errorf("%s %s %s: policy saw %d contexts in the replay, %d in the run; sequences differ",
								bin.Path, tc.name, name, len(replaySeen), len(runSeen))
						}
						n++
					}
				}
				m.Forget(bin)
			}
			mu.Lock()
			replays += n
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	t.Logf("%d replays over %d executables matched their runs", replays, len(execs))
}

// Replays must keep rejoining their baselines: the instructions a cold
// matrix build executes stay within twice the baselines' own steps.
// Outputs cannot catch a replay that stopped rejoining — it only gets
// slower — so this bound is the regression gate. Recording every
// baseline in full is the floor.
func TestMatrixStepsNearBaseline(t *testing.T) {
	s, m := fixture(t)
	machine := emu.New(s.Resolver)
	var baseline uint64
	for _, bin := range images(t, s) {
		tr, err := machine.RunImage(bin)
		if err != nil {
			t.Fatal(err)
		}
		baseline += uint64(tr.Steps)
	}
	if m.Stats.Steps < baseline || m.Stats.Steps > 2*baseline {
		t.Errorf("matrix build executed %d instructions; baselines total %d (want 1x to 2x)", m.Stats.Steps, baseline)
	}
	t.Logf("matrix steps %d = %.2fx the baselines' %d", m.Stats.Steps, float64(m.Stats.Steps)/float64(baseline), baseline)
}

// A worker's machine outlives every executable it measures; after the
// matrix's executables it must hold decode arrays for shared libraries
// only.
func TestWorkerMachineKeepsOnlyLibraries(t *testing.T) {
	s, _ := fixture(t)
	machine := emu.New(s.Resolver)
	for _, j := range executables(s) {
		emulateOne(machine, j.path, j.data, s.Input.Footprints[j.pkg])
	}
	decoded := machine.Decoded()
	if len(decoded) == 0 {
		t.Fatal("worker machine decoded nothing")
	}
	for _, bin := range decoded {
		if bin.Class != elfx.ClassELFLib {
			t.Errorf("worker machine still holds decode arrays for %s (class %v)", bin.Path, bin.Class)
		}
	}
}
