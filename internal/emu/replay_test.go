package emu

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/x86"
)

// buildExec assembles a dependency-free executable whose entry is main.
func buildExec(t *testing.T, main func(a *x86.Asm)) *elfx.Binary {
	t.Helper()
	b := elfx.NewExec()
	b.Func("main", true, main)
	b.Entry("main")
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("app", data)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// checkReplay runs bin from its entry point under a fresh policy from
// newPolicy filtered to system call num, replays rec at num under
// another fresh one, and requires the same Steps and Stopped from both
// and deep-equal sequences of policy calls. Each context carries its
// event, and the run's contexts must carry exactly the run's events that
// issued num, so every event the policy decides is compared. It returns
// Run's trace and the instructions the replay executed.
func checkReplay(t *testing.T, m *Machine, bin *elfx.Binary, rec *Recording, num int64, newPolicy func() SyscallPolicy) (*Trace, uint64) {
	t.Helper()
	watch := func(seen *[]SyscallContext) SyscallPolicy {
		p := newPolicy()
		return func(ctx SyscallContext) SyscallResult {
			*seen = append(*seen, ctx)
			return p(ctx)
		}
	}
	var runSeen, replaySeen []SyscallContext
	decides := watch(&runSeen)
	m.Policy = func(ctx SyscallContext) SyscallResult {
		if ctx.Event.KnownNum && ctx.Event.Num == num {
			return decides(ctx)
		}
		return SyscallResult{}
	}
	want, err := m.RunImage(bin)
	m.Policy = nil
	if err != nil {
		t.Fatal(err)
	}
	before := m.Executed()
	got, err := m.Replay(rec, num, watch(&replaySeen))
	if err != nil {
		t.Fatal(err)
	}
	executed := m.Executed() - before
	if got.Steps != want.Steps || got.Stopped != want.Stopped || got.Events != nil {
		t.Errorf("replay at %d differs from run:\nreplay: stopped=%q steps=%d events=%d\nrun:    stopped=%q steps=%d",
			num, got.Stopped, got.Steps, len(got.Events), want.Stopped, want.Steps)
	}
	k := 0
	for i, ev := range want.Events {
		if !ev.KnownNum || ev.Num != num {
			continue
		}
		if k >= len(runSeen) || runSeen[k].Index != i || runSeen[k].Event != ev {
			t.Fatalf("run under num %d: policy context %d does not carry event %d %+v", num, k, i, ev)
		}
		k++
	}
	if k != len(runSeen) {
		t.Fatalf("run called the policy %d times for %d events that issued %d", len(runSeen), k, num)
	}
	if !reflect.DeepEqual(replaySeen, runSeen) {
		t.Errorf("policy saw %d calls in the replay at %d, %d in the run; sequences differ", len(replaySeen), num, len(runSeen))
	}
	return want, executed
}

// checkEveryNumber runs checkReplay once per distinct system-call number
// of rec's events, for a policy that may depart anywhere.
func checkEveryNumber(t *testing.T, m *Machine, bin *elfx.Binary, rec *Recording, newPolicy func() SyscallPolicy) {
	t.Helper()
	for _, num := range numbers(rec) {
		checkReplay(t, m, bin, rec, num, newPolicy)
	}
}

// numbers lists the distinct known system-call numbers of rec's events,
// in order of first occurrence.
func numbers(rec *Recording) []int64 {
	var out []int64
	for _, ev := range rec.Trace.Events {
		if ev.KnownNum && !slices.Contains(out, ev.Num) {
			out = append(out, ev.Num)
		}
	}
	return out
}

// numAt returns the number of rec's event i: the call a policy departing
// at event i faults.
func numAt(t *testing.T, rec *Recording, i int) int64 {
	t.Helper()
	ev := rec.Trace.Events[i]
	if !ev.KnownNum {
		t.Fatalf("event %d has no known number", i)
	}
	return ev.Num
}

func record(t *testing.T, m *Machine, bin *elfx.Binary) *Recording {
	t.Helper()
	rec, err := m.Record(bin)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// passThrough answers the recording-only default everywhere.
func passThrough() SyscallPolicy {
	return func(SyscallContext) SyscallResult { return SyscallResult{} }
}

// at answers ret at event index idx and the default elsewhere.
func at(idx int, ret int64) func() SyscallPolicy {
	return func() SyscallPolicy {
		return func(ctx SyscallContext) SyscallResult {
			if ctx.Index == idx {
				return SyscallResult{Ret: ret}
			}
			return SyscallResult{}
		}
	}
}

func stopAt(idx int) func() SyscallPolicy {
	return func() SyscallPolicy {
		return func(ctx SyscallContext) SyscallResult {
			if ctx.Index == idx {
				return SyscallResult{Stop: "fault: stopped"}
			}
			return SyscallResult{}
		}
	}
}

func TestRecordMatchesRun(t *testing.T) {
	r, app := buildPair(t)
	m := New(r)
	want, err := m.RunImage(app)
	if err != nil {
		t.Fatal(err)
	}
	rec := record(t, m, app)
	if !reflect.DeepEqual(rec.Trace, want) {
		t.Errorf("recording trace %+v, run %+v", rec.Trace, want)
	}
	if len(rec.cps) != len(want.Events) {
		t.Errorf("%d checkpoints for %d events", len(rec.cps), len(want.Events))
	}
	checkEveryNumber(t, m, app, rec, passThrough)
	got, err := m.Replay(rec, 1, nil)
	if err != nil || got.Steps != want.Steps || got.Stopped != want.Stopped || got.Events != nil {
		t.Errorf("nil-policy replay: %v, %+v; want steps %d, stopped %q, no events", err, got, want.Steps, want.Stopped)
	}
}

// An injected return value that flows into a later syscall's number: the
// replay must stay diverged past the next event (rdi still holds the
// injected value there) and rejoin only once rdi is overwritten.
func TestReplayInjectedReturnReachesLaterNumber(t *testing.T) {
	app := buildExec(t, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 2) // open
		a.Syscall()
		a.MovRegReg(x86.RDI, x86.RAX) // fd := return value
		a.MovRegImm32(x86.RAX, 3)     // close(fd)
		a.Syscall()
		a.MovRegReg(x86.RAX, x86.RDI) // syscall number := fd
		a.Syscall()
		a.MovRegImm32(x86.RAX, 60) // exit(0)
		a.XorReg(x86.RDI)
		a.Syscall()
		a.Ret()
	})
	m := New(footprint.NewResolver())
	rec := record(t, m, app)

	want, executed := checkReplay(t, m, app, rec, numAt(t, rec, 0), at(0, 39))
	if ev := want.Events[2]; !ev.KnownNum || ev.Num != 39 {
		t.Fatalf("event 2 = %+v, want the injected 39 as its number", ev)
	}
	if executed == 0 || executed >= uint64(want.Steps) {
		t.Errorf("replay executed %d instructions of %d; want a rejoin after the divergence", executed, want.Steps)
	}

	// Policies that answer the diverged number too, faulting each number
	// of the recording in turn, and 39, which only a departure issues: a
	// replay at 39 never departs, so it calls nothing.
	nums := append(numbers(rec), 39)
	for _, num := range nums {
		checkReplay(t, m, app, rec, num, func() SyscallPolicy {
			return func(ctx SyscallContext) SyscallResult {
				switch ctx.Event.Num {
				case 2:
					return SyscallResult{Ret: 39}
				case 39:
					return SyscallResult{Ret: -38}
				}
				return SyscallResult{}
			}
		})
		checkReplay(t, m, app, rec, num, func() SyscallPolicy {
			return func(ctx SyscallContext) SyscallResult {
				if ctx.Event.Num == 39 {
					return SyscallResult{Stop: "fault: 39"}
				}
				return SyscallResult{Ret: 39}
			}
		})
	}
	for i := range rec.Trace.Events {
		checkReplay(t, m, app, rec, numAt(t, rec, i), at(i, int64(100+i)))
		checkReplay(t, m, app, rec, numAt(t, rec, i), stopAt(i))
	}
}

// buildWrites assembles an executable that calls buildPair's libc write
// three times, carrying the first write's return value into the next
// call's arguments.
func buildWrites(t *testing.T) (*footprint.Resolver, *elfx.Binary) {
	t.Helper()
	r, _ := buildPair(t)
	b := elfx.NewExec()
	b.Needed("libc.so.6")
	writePLT := b.Import("write")
	b.Func("main", true, func(a *x86.Asm) {
		a.CallLabel(writePLT)
		a.MovRegReg(x86.RDX, x86.RAX) // carry write's return into the next call
		a.CallLabel(writePLT)
		a.CallLabel(writePLT)
		a.MovRegImm32(x86.RAX, 60)
		a.Syscall()
		a.Ret()
	})
	b.Entry("main")
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("app", data)
	if err != nil {
		t.Fatal(err)
	}
	return r, bin
}

// A Stop at a later occurrence of a call, both while in step with the
// recording and after an earlier injection diverged the replay.
func TestReplayStopAtLaterOccurrence(t *testing.T) {
	r, app := buildWrites(t)
	m := New(r)
	rec := record(t, m, app)

	stopSecondWrite := func(inject int64) func() SyscallPolicy {
		return func() SyscallPolicy {
			writes := 0
			return func(ctx SyscallContext) SyscallResult {
				if ctx.Event.Num != 1 {
					return SyscallResult{}
				}
				writes++
				if writes == 2 {
					return SyscallResult{Stop: "fault: second write"}
				}
				return SyscallResult{Ret: inject}
			}
		}
	}
	for _, inject := range []int64{0, -38} {
		want, _ := checkReplay(t, m, app, rec, 1, stopSecondWrite(inject))
		if want.Stopped != "fault: second write" || len(want.Events) != 2 {
			t.Errorf("inject %d: trace %+v, want a stop at the second write", inject, want)
		}
	}
}

func TestReplayStepBudgetAndCallDepth(t *testing.T) {
	// The loop reloads rax every iteration, so an injection rejoins at
	// the next event.
	loop := buildExec(t, func(a *x86.Asm) {
		a.Label("main.spin")
		a.MovRegImm32(x86.RAX, 39)
		a.Syscall()
		a.JmpLabel("main.spin")
	})
	// This one keeps every return in rdi, so an injection never rejoins
	// and the replay steps to the budget.
	sticky := buildExec(t, func(a *x86.Asm) {
		a.Label("main.spin")
		a.MovRegImm32(x86.RAX, 39)
		a.Syscall()
		a.MovRegReg(x86.RDI, x86.RAX)
		a.JmpLabel("main.spin")
	})
	recurse := buildExec(t, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 39)
		a.Syscall()
		a.CallLabel("fn.main")
		a.Ret()
	})

	m := New(footprint.NewResolver())
	m.MaxSteps = 1000
	m.MaxDepth = 16
	for _, tc := range []struct {
		name    string
		bin     *elfx.Binary
		stopped string
	}{
		{"loop", loop, "step budget"},
		{"sticky", sticky, "step budget"},
		{"recurse", recurse, "call depth exceeded"},
	} {
		rec := record(t, m, tc.bin)
		if rec.Trace.Stopped != tc.stopped {
			t.Fatalf("%s: recording stopped %q, want %q", tc.name, rec.Trace.Stopped, tc.stopped)
		}
		n := len(rec.Trace.Events)
		for _, i := range []int{0, 1, n / 2, n - 1} {
			checkReplay(t, m, tc.bin, rec, numAt(t, rec, i), at(i, 7))
			checkReplay(t, m, tc.bin, rec, numAt(t, rec, i), stopAt(i))
		}
		checkEveryNumber(t, m, tc.bin, rec, func() SyscallPolicy {
			return func(ctx SyscallContext) SyscallResult { return SyscallResult{Ret: int64(ctx.Index + 1)} }
		})
	}
}

// A stateful policy must be called exactly as often, and in the same
// order, as a run from entry calls it: once per occurrence of the number
// it faults.
func TestReplayStatefulPolicy(t *testing.T) {
	r, app := buildWrites(t)
	m := New(r)
	rec := record(t, m, app)
	for _, num := range numbers(rec) {
		calls := 0
		counting := func() SyscallPolicy {
			n := 0
			return func(ctx SyscallContext) SyscallResult {
				n++
				calls++
				if n%2 == 1 {
					return SyscallResult{Ret: int64(n)}
				}
				return SyscallResult{}
			}
		}
		want, _ := checkReplay(t, m, app, rec, num, counting)
		occurrences := 0
		for _, ev := range want.Events {
			if ev.KnownNum && ev.Num == num {
				occurrences++
			}
		}
		if num == 1 && occurrences != 3 {
			t.Fatalf("run issued %d writes, want the fixture's 3", occurrences)
		}
		if calls != 2*occurrences {
			t.Errorf("num %d: policy called %d times across run and replay, want %d", num, calls, 2*occurrences)
		}
	}
}

// A syscall in the step-budget loop issues far more events than a
// recording may checkpoint. The count must stay within the cap, and
// replays must stay exact whichever events kept a checkpoint.
func TestRecordingCheckpointCap(t *testing.T) {
	app := budgetLoop(t)
	m := New(footprint.NewResolver())
	rec := record(t, m, app)
	n := len(rec.Trace.Events)
	if rec.Trace.Stopped != "step budget" || n <= maxCheckpoints {
		t.Fatalf("recording stopped %q after %d events; the fixture must outrun the cap", rec.Trace.Stopped, n)
	}
	if len(rec.cps) > maxCheckpoints {
		t.Errorf("recording kept %d checkpoints, cap %d", len(rec.cps), maxCheckpoints)
	}
	for k, cp := range rec.cps {
		if want := rec.at[k*rec.stride].steps; cp.steps != want {
			t.Fatalf("checkpoint %d is at step %d, event %d at step %d", k, cp.steps, k*rec.stride, want)
		}
	}

	late := n - rec.stride/2 - 1 // between two checkpoints
	want, executed := checkReplay(t, m, app, rec, 39, at(late, -38))
	if executed > uint64(want.Steps)/10 {
		t.Errorf("one late injection executed %d of %d instructions", executed, want.Steps)
	}
	checkReplay(t, m, app, rec, 39, stopAt(late))
	checkReplay(t, m, app, rec, 39, at(n-1, 5))

	// With only event 0 checkpointed, every departure steps from there
	// and never rejoins.
	sparse := *rec
	sparse.cps = rec.cps[:1]
	sparse.stride = 1 << 30
	checkReplay(t, m, app, &sparse, 39, at(late, -38))
	checkReplay(t, m, app, &sparse, 39, at(3, -38))
}

// budgetLoop issues a syscall (number 39) every four instructions until
// the step budget: 262,144 events under the default budget.
func budgetLoop(t *testing.T) *elfx.Binary {
	t.Helper()
	return buildExec(t, func(a *x86.Asm) {
		a.Label("main.spin")
		a.Nop()
		a.MovRegImm32(x86.RAX, 39)
		a.Syscall()
		a.JmpLabel("main.spin")
	})
}

// A replay hands the recorded events to its policy and keeps none, so
// what it allocates must not grow with the recording: over 262,144
// events, a replay in step throughout and one that departs late and
// rejoins each allocate a few small objects.
func TestReplayAllocationsStayFlat(t *testing.T) {
	app := budgetLoop(t)
	m := New(footprint.NewResolver())
	rec := record(t, m, app)
	n := len(rec.Trace.Events)
	if n < 1<<18 {
		t.Fatalf("recording has %d events; the fixture must be long", n)
	}
	for _, tc := range []struct {
		name   string
		policy SyscallPolicy
	}{
		{"in step", passThrough()},
		{"late departure", at(n-rec.stride/2-1, -38)()},
	} {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := m.Replay(rec, 39, tc.policy); err != nil {
				t.Fatal(err)
			}
		})
		runtime.ReadMemStats(&after)
		// AllocsPerRun counts objects; one slice the length of the
		// recording is one object, so bound the bytes too.
		bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if allocs > 8 || bytes > 4<<10 {
			t.Errorf("%s: a replay of %d events allocates %.0f objects, %d bytes; want a few small objects",
				tc.name, n, allocs, bytes)
		}
	}
}

func TestReplayRejectsOtherLimits(t *testing.T) {
	r, app := buildPair(t)
	m := New(r)
	rec := record(t, m, app)
	m.MaxSteps = 10
	if _, err := m.Replay(rec, 1, nil); err == nil {
		t.Error("replay under other limits must error")
	}
	if _, err := New(footprint.NewResolver()).Replay(rec, 1, nil); err == nil {
		t.Error("replay under another resolver must error")
	}
}

// A machine resolves each PLT stub once and keeps the answer with the
// binary's decode arrays; Forget drops both.
func TestForgetDropsDecodeArrays(t *testing.T) {
	r, app := buildPair(t)
	m := New(r)
	if _, err := m.RunImage(app); err != nil {
		t.Fatal(err)
	}
	if len(m.Decoded()) != 2 {
		t.Fatalf("decoded %d binaries, want the app and libc", len(m.Decoded()))
	}
	if stubs := m.dcache[app].stubs; len(stubs) != 2 {
		t.Fatalf("app has %d resolved PLT stubs, want write and ioctl", len(stubs))
	}
	m.Forget(app)
	for _, bin := range m.Decoded() {
		if bin == app {
			t.Fatal("forgotten binary still decoded")
		}
	}
	again, err := m.RunImage(app)
	if err != nil || again.Stopped != "ret from entry" {
		t.Fatalf("run after Forget: %v, %+v", err, again)
	}
}
