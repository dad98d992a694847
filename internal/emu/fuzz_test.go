package emu

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/x86"
)

// rawExec builds a one-function executable whose .text is exactly code.
func rawExec(t *testing.T, code []byte) *elfx.Binary {
	t.Helper()
	bin := buildExec(t, func(a *x86.Asm) {
		for range code {
			a.Nop()
		}
	})
	copy(bin.Text.Data, code)
	return bin
}

// FuzzEmulatorBudget checks that a step budget cuts a run at exactly that
// many instructions wherever it falls, inside a straight line or at the
// instruction that ends one. A run under budget k must take min(k, S)
// steps, where S is the steps of a run under a budget no input reaches;
// it stops on the budget exactly when k <= S (the instruction that ends a
// run is not counted, so a run that ends at step S needs a budget above
// S to reach it), and otherwise as the large run did; and it issues the
// large run's events that stand at a step count below k. A recording
// under budget k must match the run, and its replays must match runs
// under the same policy.
func FuzzEmulatorBudget(f *testing.F) {
	sled := append(bytes.Repeat([]byte{0x90}, 64), 0xC3) // 64 nops; ret
	for _, k := range []uint16{0, 1, 32, 63, 64, 65} {
		f.Add(sled, k)
	}
	// mov eax, 1; syscall; nop; nop, and no ret: the run leaves .text.
	offEnd := []byte{0xB8, 1, 0, 0, 0, 0x0F, 0x05, 0x90, 0x90}
	for _, k := range []uint16{0, 1, 2, 3, 4, 5} {
		f.Add(offEnd, k)
	}
	// nop; mov eax, 39; nop; an undecodable byte; nop; ret.
	bad := []byte{0x90, 0xB8, 39, 0, 0, 0, 0x90, 0x06, 0x90, 0xC3}
	for _, k := range []uint16{1, 2, 3, 4} {
		f.Add(bad, k)
	}
	// mov eax, 0xc390050f; jmp back into the mov's immediate, where its
	// bytes decode as syscall; nop; ret.
	mid := []byte{0xB8, 0x0F, 0x05, 0x90, 0xC3, 0xEB, 0xFA}
	for _, k := range []uint16{1, 2, 3, 4, 5} {
		f.Add(mid, k)
	}
	// A loop that issues a system call every third instruction.
	f.Add([]byte{0xB8, 39, 0, 0, 0, 0x0F, 0x05, 0xEB, 0xF7}, uint16(1000))

	const large = 1 << 17 // above every uint16 budget
	f.Fuzz(func(t *testing.T, code []byte, k uint16) {
		if len(code) == 0 || len(code) > 4<<10 {
			t.Skip()
		}
		bin := rawExec(t, code)
		m := New(footprint.NewResolver())
		m.MaxSteps = large
		full := record(t, m, bin)
		S := full.Trace.Steps

		m.MaxSteps = int(k)
		tr, err := m.RunImage(bin)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Steps != min(int(k), S) {
			t.Errorf("budget %d: %d steps, want min(%d, %d)", k, tr.Steps, k, S)
		}
		if budget := tr.Stopped == "step budget"; budget != (int(k) <= S) || !budget && tr.Stopped != full.Trace.Stopped {
			t.Errorf("budget %d: stopped %q; the large run stopped %q after %d steps", k, tr.Stopped, full.Trace.Stopped, S)
		}
		var want []SyscallEvent
		for i, ev := range full.Trace.Events {
			if full.at[i].steps < int(k) {
				want = append(want, ev)
			}
		}
		if !slices.Equal(tr.Events, want) {
			t.Errorf("budget %d: events %+v, want %+v", k, tr.Events, want)
		}

		rec := record(t, m, bin)
		if !reflect.DeepEqual(rec.Trace, tr) {
			t.Errorf("budget %d: recording %+v, run %+v", k, rec.Trace, tr)
		}
		if got, err := m.Replay(rec, 0, nil); err != nil || got.Steps != tr.Steps || got.Stopped != tr.Stopped {
			t.Errorf("budget %d: nil-policy replay: %v, %+v", k, err, got)
		}
		for _, num := range numbers(rec) {
			checkReplay(t, m, bin, rec, num, func() SyscallPolicy {
				return func(ctx SyscallContext) SyscallResult { return SyscallResult{Ret: int64(ctx.Index % 3)} }
			})
		}
	})
}
