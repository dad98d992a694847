package emu

import (
	"fmt"
	"slices"

	"repro/internal/footprint"
)

// maxCheckpoints caps the checkpoints one recording keeps. A program
// that loops on a system call until the step budget issues hundreds of
// thousands of events, and every checkpoint holds a copy of the call
// stack; past the cap the recording keeps every other checkpoint and
// doubles its stride, so the kept ones stay spread over the whole run.
const maxCheckpoints = 1 << 10

// Recording is a policy-free run from an executable's entry point that
// also kept the machine's state at its system-call instructions. Replay
// answers any policy's run from it, executing only where the policy's
// results differ from the baseline's.
//
// A recording is valid on the machine that made it, while that
// machine's resolver and limits stay unchanged.
type Recording struct {
	// Trace is the policy-free run: what Run returns with a nil Policy.
	// Callers must not modify it.
	Trace *Trace

	a                  *footprint.Analysis
	resolver           *footprint.Resolver
	maxSteps, maxDepth int
	// at holds, per event, what a replay needs there while it is in
	// step with the recording: the step count and frame symbol at the
	// event's syscall instruction.
	at []eventAt
	// cps holds the state at every stride-th event's syscall
	// instruction: cps[k] is event k*stride. Event 0 always has one.
	cps    []state
	stride int
}

type eventAt struct {
	steps int
	sym   string
}

// Record runs a from its entry point with every system call returning
// the recording-only default (RAX=0) and keeps the machine state at its
// syscall instructions for Replay. The Policy field is ignored.
func (m *Machine) Record(a *footprint.Analysis) (*Recording, error) {
	if a.Bin.Entry == 0 {
		return nil, fmt.Errorf("emu: %s has no entry point", a.Bin.Path)
	}
	rec := &Recording{
		Trace: &Trace{}, a: a, resolver: m.resolver,
		maxSteps: m.MaxSteps, maxDepth: m.MaxDepth, stride: 1,
	}
	st := state{cur: frame{a: a, pc: a.Bin.Entry}}
	m.drive(&st, rec.Trace, 0, nil, func(st *state, idx int) bool {
		rec.Trace.Events = append(rec.Trace.Events, st.event())
		rec.at = append(rec.at, eventAt{steps: st.steps, sym: st.cur.sym})
		rec.keep(idx, st)
		return false
	})
	return rec, nil
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
// policy (the Policy field is ignored): it calls policy on the same
// contexts, in the same order, once each, and returns the same Steps and
// Stopped. The returned trace's Events is nil; a caller that needs the
// events reads them from the contexts policy is called with. A nil
// policy answers the recording itself.
//
// While its state matches the recording's, a replay executes nothing: it
// hands the recorded events to policy in order. When a result departs
// from the baseline's default (Ret 0, no Stop), it restores that
// event's state and steps the interpreter loop, until its whole state
// equals the recording's checkpoint at the same event index again. A
// stretch without checkpoints is simply stepped through, so the result
// never depends on which events have one.
func (m *Machine) Replay(rec *Recording, policy SyscallPolicy) (*Trace, error) {
	if rec.resolver != m.resolver || rec.maxSteps != m.MaxSteps || rec.maxDepth != m.MaxDepth {
		return nil, fmt.Errorf("emu: recording of %s was made under another resolver or other limits", rec.a.Bin.Path)
	}
	base := rec.Trace
	tr := &Trace{}
	if policy == nil {
		tr.Steps, tr.Stopped = base.Steps, base.Stopped
		return tr, nil
	}
	for i := 0; ; {
		var res SyscallResult
		for ; i < len(base.Events); i++ {
			res = policy(SyscallContext{Event: base.Events[i], Sym: rec.at[i].sym, Index: i})
			if res.Stop != "" {
				tr.Steps, tr.Stopped = rec.at[i].steps, res.Stop
				return tr, nil
			}
			if res.Ret != 0 {
				break
			}
		}
		if i == len(base.Events) {
			tr.Steps, tr.Stopped = base.Steps, base.Stopped
			return tr, nil
		}
		st, err := m.restore(rec, i)
		if err != nil {
			return nil, err
		}
		m.sysret(&st, res.Ret)
		rejoined := m.drive(&st, tr, i+1, policy, func(st *state, j int) bool {
			if cp := rec.checkpoint(j); cp != nil && cp.equal(st) {
				i = j
				return true
			}
			return false
		})
		if !rejoined {
			return tr, nil
		}
	}
}

// restore returns the state at event i's syscall instruction: a copy of
// the nearest checkpoint at or before it, stepped forward to event i
// with the baseline's results.
func (m *Machine) restore(rec *Recording, i int) (state, error) {
	k := min(i/rec.stride, len(rec.cps)-1)
	st := rec.cps[k]
	// The live stack pops and pushes in place; it must not share the
	// checkpoint's array.
	st.stack = slices.Clone(st.stack)
	for n := k * rec.stride; n < i; n++ {
		m.sysret(&st, 0)
		if stop := m.next(&st); stop != "" {
			return state{}, fmt.Errorf("emu: replay of %s left its recording before event %d: %s", rec.a.Bin.Path, n+1, stop)
		}
	}
	return st, nil
}
