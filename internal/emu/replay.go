package emu

import (
	"fmt"
	"slices"

	"repro/internal/elfx"
	"repro/internal/footprint"
)

// maxCheckpoints caps the checkpoints one recording keeps. A program
// that loops on a system call until the step budget issues hundreds of
// thousands of events, and every checkpoint holds a copy of the call
// stack; past the cap the recording keeps every other checkpoint and
// doubles its stride, so the kept ones stay spread over the whole run.
const maxCheckpoints = 1 << 10

// Recording is a policy-free run from an executable's entry point that
// also kept the machine's state at its system-call instructions and the
// positions of each system call's occurrences. Replay answers a run
// faulting one system call from it, executing only where the policy's
// results differ from the baseline's.
//
// A recording is valid on the machine that made it, while that
// machine's resolver and limits stay unchanged.
type Recording struct {
	// Trace is the policy-free run: what Run returns with a nil Policy.
	// Callers must not modify it.
	Trace *Trace

	bin                *elfx.Binary
	resolver           *footprint.Resolver
	maxSteps, maxDepth int
	// at holds, per event, what a replay needs there while it is in
	// step with the recording: the step count and frame symbol at the
	// event's syscall instruction.
	at []eventAt
	// byNum lists, per system-call number, the indices of the events
	// that issued it with a known number, in order.
	byNum map[int64][]int
	// cps holds the state at every stride-th event's syscall
	// instruction: cps[k] is event k*stride. Event 0 always has one.
	cps    []state
	stride int
}

type eventAt struct {
	steps int
	sym   string
}

// Record runs bin from its entry point with every system call returning
// the recording-only default (RAX=0) and keeps the machine state at its
// syscall instructions for Replay. The Policy field is ignored.
func (m *Machine) Record(bin *elfx.Binary) (*Recording, error) {
	if bin.Entry == 0 {
		return nil, fmt.Errorf("emu: %s has no entry point", bin.Path)
	}
	rec := &Recording{
		Trace: &Trace{}, bin: bin, resolver: m.resolver,
		maxSteps: m.MaxSteps, maxDepth: m.MaxDepth, stride: 1,
	}
	st := state{cur: frame{bin: bin, pc: bin.Entry}}
	m.drive(&st, rec.Trace, 0, nil, nil, func(st *state, idx int) bool {
		rec.Trace.Events = append(rec.Trace.Events, st.event())
		rec.at = append(rec.at, eventAt{steps: st.steps, sym: st.cur.sym})
		rec.keep(idx, st)
		return false
	})
	rec.byNum = byNum(rec.Trace.Events)
	return rec, nil
}

// byNum lists, per system-call number, the indices of the events that
// issued it with a known number, in order. The lists share one array.
func byNum(events []SyscallEvent) map[int64][]int {
	counts := make(map[int64]int)
	known := 0
	for _, ev := range events {
		if ev.KnownNum {
			counts[ev.Num]++
			known++
		}
	}
	all := make([]int, known)
	out := make(map[int64][]int, len(counts))
	off := 0
	for num, n := range counts {
		out[num] = all[off : off : off+n]
		off += n
	}
	for i, ev := range events {
		if ev.KnownNum {
			out[ev.Num] = append(out[ev.Num], i)
		}
	}
	return out
}

// keep checkpoints event idx's state when idx falls on the stride.
func (rec *Recording) keep(idx int, st *state) {
	if idx%rec.stride != 0 {
		return
	}
	cp := *st
	cp.stack = slices.Clone(st.stack)
	rec.cps = append(rec.cps, cp)
	if len(rec.cps) <= maxCheckpoints {
		return
	}
	n := (len(rec.cps) + 1) / 2
	for k := 1; k < n; k++ {
		rec.cps[k] = rec.cps[2*k]
	}
	clear(rec.cps[n:])
	rec.cps = rec.cps[:n]
	rec.stride *= 2
}

// checkpoint returns the kept state at event idx's syscall instruction,
// or nil when there is none.
func (rec *Recording) checkpoint(idx int) *state {
	if idx%rec.stride != 0 || idx/rec.stride >= len(rec.cps) {
		return nil
	}
	return &rec.cps[idx/rec.stride]
}

// Replay answers the run Run would make from rec's entry point under
// policy filtered to system call num: policy decides the known-number
// occurrences of num, and every other event gets the recording-only
// default (Ret 0, no Stop). Replay(rec, num, policy) returns the Steps
// and Stopped that Run returns under that filtered policy (the Policy
// field is ignored), and calls policy on the same contexts, in the same
// order, once each. The returned trace's Events is nil; a caller that
// needs the events reads them from the contexts policy is called with.
// A nil policy answers the recording itself.
//
// While its state matches the recording's, a replay executes nothing and
// visits only num's occurrences: it hands each one's recorded event to
// policy, starting at the first. When a result departs from the
// baseline's default, it restores that event's state and steps the
// interpreter loop, asking policy about num's occurrences only, until
// its whole state equals the recording's checkpoint at some event index
// j again; it then resumes at num's first occurrence at or after j. A
// stretch without checkpoints is simply stepped through, so the result
// never depends on which events have one.
func (m *Machine) Replay(rec *Recording, num int64, policy SyscallPolicy) (*Trace, error) {
	if rec.resolver != m.resolver || rec.maxSteps != m.MaxSteps || rec.maxDepth != m.MaxDepth {
		return nil, fmt.Errorf("emu: recording of %s was made under another resolver or other limits", rec.bin.Path)
	}
	base := rec.Trace
	tr := &Trace{}
	occ := rec.byNum[num]
	if policy == nil {
		occ = nil
	}
	for k := 0; ; {
		var res SyscallResult
		i := 0
		for ; k < len(occ); k++ {
			i = occ[k]
			res = policy(SyscallContext{Event: base.Events[i], Sym: rec.at[i].sym, Index: i})
			if res.Stop != "" {
				tr.Steps, tr.Stopped = rec.at[i].steps, res.Stop
				return tr, nil
			}
			if res.Ret != 0 {
				break
			}
		}
		if k == len(occ) {
			tr.Steps, tr.Stopped = base.Steps, base.Stopped
			return tr, nil
		}
		st, n, err := m.restore(rec, i)
		if err != nil {
			return nil, err
		}
		m.sysret(&st, n, res.Ret)
		rejoined := m.drive(&st, tr, i+1, policy, &num, func(st *state, j int) bool {
			if cp := rec.checkpoint(j); cp != nil && cp.equal(st) {
				for k < len(occ) && occ[k] < j {
					k++
				}
				return true
			}
			return false
		})
		if !rejoined {
			return tr, nil
		}
	}
}

// restore returns the state at event i's syscall instruction and that
// instruction's length: a copy of the nearest checkpoint at or before
// it, stepped forward to event i with the baseline's results.
func (m *Machine) restore(rec *Recording, i int) (state, int, error) {
	k := min(i/rec.stride, len(rec.cps)-1)
	st := rec.cps[k]
	// The live stack pops and pushes in place; it must not share the
	// checkpoint's array.
	st.stack = slices.Clone(st.stack)
	inst, _ := decodeAt(st.cur.bin, st.cur.pc)
	n := inst.Len
	for j := k * rec.stride; j < i; j++ {
		m.sysret(&st, n, 0)
		var stop string
		if stop, n = m.next(&st); stop != "" {
			return state{}, 0, fmt.Errorf("emu: replay of %s left its recording before event %d: %s", rec.bin.Path, j+1, stop)
		}
	}
	return st, n, nil
}
