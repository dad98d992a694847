// Package emu is the dynamic-analysis cross-check the paper describes in
// §2.3: "we spot check that static analysis returns a superset of strace
// results". Since the synthetic binaries cannot be executed on a real
// kernel safely or portably, this package executes them in a user-mode
// emulator: it interprets the generated x86-64 machine code from the entry
// point, follows direct calls and jumps, resolves calls through the PLT
// across shared libraries exactly as the dynamic linker would, and records
// every system call the program issues along with its constant arguments —
// an strace equivalent for the corpus.
//
// The emulator implements the instruction repertoire the corpus generator
// emits (constant loads, register moves, RIP-relative address formation,
// direct and indirect calls, returns, and the three system-call
// instructions). Real-world binaries use a far larger repertoire; for
// those, emulation stops at the first unmodeled instruction and reports how
// far it got.
//
// The emulator runs ELF images (elfx.Binary) as the loader sees them; it
// needs no static analysis of the code it executes.
//
// Fault injection runs one program many times, each time under a policy
// that departs from the recording-only default at the occurrences of one
// system call. Record runs it once, keeps the machine state at its
// syscall instructions and indexes its events by system-call number;
// Replay then visits only the occurrences of the one call it faults,
// calls the policy there exactly as Run would, and returns the same
// Steps and Stopped, executing instructions only where the policy's
// results make the run differ from the recording. A replay keeps no
// events: the policy sees each one it decides.
package emu

import (
	"fmt"
	"slices"

	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/x86"
)

// SyscallEvent is one system call observed during emulation.
type SyscallEvent struct {
	// Num is the value of rax at the syscall instruction (-1 if unknown,
	// e.g. loaded from memory).
	Num int64
	// KnownNum reports whether rax held a tracked constant.
	KnownNum bool
	// Args holds rdi, rsi, rdx at the call; Known flags which were
	// tracked constants.
	Args      [3]int64
	ArgsKnown [3]bool
	// Binary is the path of the binary whose code issued the call.
	Binary string
}

// Trace is the result of one emulated run.
type Trace struct {
	Events []SyscallEvent
	// Steps is the number of instructions executed.
	Steps int
	// Stopped describes why execution ended ("ret from entry", "step
	// budget", "unmodeled control flow in <binary> .text+<off>", ...).
	// Stops caused by code the emulator cannot model name the binary
	// and section offset that hit them, so a stop mid-library is
	// attributable without re-running.
	Stopped string
}

// Completed reports whether the run finished its entry path normally
// rather than aborting on a budget, an unmodeled instruction, or a
// policy-injected fault.
func (t *Trace) Completed() bool {
	return t.Stopped == "ret from entry" || t.Stopped == "halt"
}

// Syscalls returns the set of system-call names observed.
func (t *Trace) Syscalls() map[string]bool {
	out := make(map[string]bool)
	for _, ev := range t.Events {
		if !ev.KnownNum {
			continue
		}
		if d := linuxapi.SyscallByNum(int(ev.Num)); d != nil {
			out[d.Name] = true
		}
	}
	return out
}

// APIs returns the observed API set (system calls plus vectored opcodes),
// directly comparable to a static footprint.
func (t *Trace) APIs() footprint.Set {
	out := make(footprint.Set)
	for _, ev := range t.Events {
		if !ev.KnownNum {
			continue
		}
		d := linuxapi.SyscallByNum(int(ev.Num))
		if d == nil {
			continue
		}
		out.Add(linuxapi.Sys(d.Name))
		switch d.Name {
		case "ioctl":
			if ev.ArgsKnown[1] {
				if op := linuxapi.OpcodeByCode(linuxapi.KindIoctl, uint64(ev.Args[1])); op != nil {
					out.Add(linuxapi.API{Kind: linuxapi.KindIoctl, Name: op.Name})
				}
			}
		case "fcntl":
			if ev.ArgsKnown[1] {
				if op := linuxapi.OpcodeByCode(linuxapi.KindFcntl, uint64(ev.Args[1])); op != nil {
					out.Add(linuxapi.API{Kind: linuxapi.KindFcntl, Name: op.Name})
				}
			}
		case "prctl":
			if ev.ArgsKnown[0] {
				if op := linuxapi.OpcodeByCode(linuxapi.KindPrctl, uint64(ev.Args[0])); op != nil {
					out.Add(linuxapi.API{Kind: linuxapi.KindPrctl, Name: op.Name})
				}
			}
		}
	}
	return out
}

// SyscallContext describes one intercepted system-call occurrence, the
// input a SyscallPolicy decides on.
type SyscallContext struct {
	// Event is the recorded occurrence (number, constant args, binary).
	Event SyscallEvent
	// Sym is the export symbol through which control entered the frame
	// issuing the call — "__libc_start_main" for calls made during libc
	// startup, the wrapper's name ("write", "pthread_create", ...) for
	// calls inside a library wrapper, and "" for raw syscall
	// instructions in the executable's own entry code.
	Sym string
	// Index is the 0-based position of this occurrence in the run.
	Index int
}

// SyscallResult is a policy's decision for one occurrence: the value the
// emulated program sees in RAX, and optionally a stop reason that aborts
// the run (modeling a fault the program cannot survive).
type SyscallResult struct {
	Ret  int64
	Stop string
}

// SyscallPolicy intercepts the syscall instruction and supplies its
// return value instead of the recording-only default (RAX=0). Run calls
// it at every event and keeps the event in its trace either way; a
// Replay calls it only at the occurrences of the one system call it
// faults and keeps no events. Fault-injection policies use Stop to
// declare the entry path dead at this occurrence.
type SyscallPolicy func(SyscallContext) SyscallResult

// Machine emulates one program against a resolver holding its shared
// libraries. A machine is not safe for concurrent use.
type Machine struct {
	resolver *footprint.Resolver
	// MaxSteps bounds execution (default 1 << 20).
	MaxSteps int
	// MaxDepth bounds the call stack (default 256).
	MaxDepth int
	// Policy, when non-nil, decides every system call's return value
	// (and may abort the run) in Run, RunImage and RunExport. Nil
	// preserves the recording-only behavior: every call "succeeds" with
	// RAX=0. Record and Replay ignore it.
	Policy SyscallPolicy

	// dcache memoizes decoded instructions per binary as dense
	// per-section arrays indexed by code offset, and where each of its
	// PLT stubs leads. Code bytes are immutable for the life of a Binary,
	// so the cache is exact. A recording and all its replays decode each
	// instruction once, and the libraries every executable calls into
	// stay decoded from one executable to the next; Forget drops a binary
	// nothing will run again. The step loop keeps the current frame's
	// arrays at hand, so its per-step fast path is a pointer compare, a
	// bounds check and a slice index.
	dcache map[*elfx.Binary]*decoded

	// executed counts the instructions the step loop has executed.
	executed uint64
}

// decoded holds one binary's decode arrays, for .text and .plt, and its
// resolved PLT stubs.
type decoded struct {
	secs [2]section
	// stubs maps a PLT stub's address to the frame a call through it
	// enters (the zero frame: the import resolves nowhere). The machine
	// asks its resolver once per stub, so libraries must be registered
	// before the machine first runs a binary that calls into them.
	stubs map[uint64]frame
}

// section caches decoded instructions: insts[i] is the instruction
// starting at byte i (valid when ok[i]).
type section struct {
	addr  uint64
	data  []byte
	insts []x86.Inst
	ok    []bool
}

func newSection(sec elfx.Section) section {
	return section{
		addr:  sec.Addr,
		data:  sec.Data,
		insts: make([]x86.Inst, len(sec.Data)),
		ok:    make([]bool, len(sec.Data)),
	}
}

func (m *Machine) decodedFor(bin *elfx.Binary) *decoded {
	if dc, ok := m.dcache[bin]; ok {
		return dc
	}
	dc := &decoded{secs: [2]section{newSection(bin.Text), newSection(bin.Plt)}}
	if m.dcache == nil {
		m.dcache = make(map[*elfx.Binary]*decoded)
	}
	m.dcache[bin] = dc
	return dc
}

// Forget drops bin's decode arrays and resolved PLT stubs. Callers done
// with a binary call it so a long-lived machine holds only what later
// runs share; running bin again just decodes it again.
func (m *Machine) Forget(bin *elfx.Binary) { delete(m.dcache, bin) }

// Decoded lists the binaries whose decode arrays the machine holds, in
// no particular order.
func (m *Machine) Decoded() []*elfx.Binary {
	out := make([]*elfx.Binary, 0, len(m.dcache))
	for bin := range m.dcache {
		out = append(out, bin)
	}
	return out
}

// Executed reports how many instructions the machine has executed over
// its lifetime, across Run, RunExport, Record and Replay. A replay adds
// only the instructions it actually stepped, not its trace's Steps.
func (m *Machine) Executed() uint64 { return m.executed }

// fetch returns the instruction at pc, decoding it on first use, or nil
// when pc is outside both sections. It points into the arrays, so a step
// copies no instruction.
func (dc *decoded) fetch(pc uint64) *x86.Inst {
	for i := range dc.secs {
		s := &dc.secs[i]
		if off := pc - s.addr; off < uint64(len(s.insts)) {
			if !s.ok[off] {
				s.insts[off] = x86.Decode(s.data[off:], pc)
				s.ok[off] = true
			}
			return &s.insts[off]
		}
	}
	return nil
}

// New returns a machine resolving imports through r.
func New(r *footprint.Resolver) *Machine {
	return &Machine{resolver: r, MaxSteps: 1 << 20, MaxDepth: 256}
}

// frame is one activation: a binary context, a return address, and the
// export symbol through which control entered the context (for policy
// attribution; "" in the entry binary's own code).
type frame struct {
	bin *elfx.Binary
	pc  uint64
	sym string
}

// regs holds the tracked registers. An unknown register's value is
// always zero, so two register files are equivalent exactly when they
// are ==.
type regs struct {
	val   [16]int64
	known [16]bool
}

func (r *regs) set(reg x86.Reg, v int64) {
	if reg < 16 {
		r.val[reg] = v
		r.known[reg] = true
	}
}

func (r *regs) clobber(reg x86.Reg) {
	if reg < 16 {
		r.val[reg] = 0
		r.known[reg] = false
	}
}

func (r *regs) get(reg x86.Reg) (int64, bool) {
	if reg < 16 && r.known[reg] {
		return r.val[reg], true
	}
	return 0, false
}

// state is everything the step loop reads and writes besides the decode
// cache. Record keeps copies of it, and a replay rejoins its recording
// when its own state equals the recorded copy at the same event index.
// That is exact only while every field the loop depends on lives here
// and is compared by equal: a field left out would let a replay rejoin
// from a state that merely looks like the recorded one.
type state struct {
	r     regs
	cur   frame
	stack []frame
	steps int
}

func (s *state) equal(o *state) bool {
	return s.r == o.r && s.cur == o.cur && s.steps == o.steps && slices.Equal(s.stack, o.stack)
}

// event reads the system call issued by the instruction s stands on.
func (s *state) event() SyscallEvent {
	ev := SyscallEvent{Binary: s.cur.bin.Path}
	ev.Num, ev.KnownNum = s.r.get(x86.RAX)
	ev.Args[0], ev.ArgsKnown[0] = s.r.get(x86.RDI)
	ev.Args[1], ev.ArgsKnown[1] = s.r.get(x86.RSI)
	ev.Args[2], ev.ArgsKnown[2] = s.r.get(x86.RDX)
	return ev
}

// Run emulates an analyzed binary from its entry point: RunImage on
// a.Bin.
func (m *Machine) Run(a *footprint.Analysis) (*Trace, error) { return m.RunImage(a.Bin) }

// RunImage emulates bin from its entry point.
func (m *Machine) RunImage(bin *elfx.Binary) (*Trace, error) {
	if bin.Entry == 0 {
		return nil, fmt.Errorf("emu: %s has no entry point", bin.Path)
	}
	return m.run(bin, bin.Entry, ""), nil
}

// RunExport emulates one exported function of a library image.
func (m *Machine) RunExport(bin *elfx.Binary, export string) (*Trace, error) {
	sym := bin.FuncNamed(export)
	if sym == nil {
		return nil, fmt.Errorf("emu: %s does not define %s", bin.Path, export)
	}
	return m.run(bin, sym.Addr, export), nil
}

func (m *Machine) run(bin *elfx.Binary, entry uint64, sym string) *Trace {
	tr := &Trace{}
	st := state{cur: frame{bin: bin, pc: entry, sym: sym}}
	m.drive(&st, tr, 0, m.Policy, nil, func(st *state, _ int) bool {
		tr.Events = append(tr.Events, st.event())
		return false
	})
	return tr
}

// drive runs st to the end of the run one system call at a time,
// numbering events from idx and taking each one's result from policy:
// every event's (Run) when only is nil, else only those of the events
// that issue system call *only with a known number (Replay). Every other
// event, and every event under a nil policy, gets the recording-only
// default. At each syscall instruction, before policy sees it, at (when
// non-nil) may take st back: drive then returns true with st standing on
// that instruction. Otherwise it returns false once the run has ended,
// with tr.Steps and tr.Stopped set. drive keeps no events; an at that
// returns false may.
func (m *Machine) drive(st *state, tr *Trace, idx int, policy SyscallPolicy, only *int64, at func(st *state, idx int) bool) bool {
	for ; ; idx++ {
		if stop := m.next(st); stop != "" {
			tr.Steps, tr.Stopped = st.steps, stop
			return false
		}
		if at != nil && at(st, idx) {
			return true
		}
		var res SyscallResult
		if policy != nil && (only == nil || st.r.known[x86.RAX] && st.r.val[x86.RAX] == *only) {
			res = policy(SyscallContext{Event: st.event(), Sym: st.cur.sym, Index: idx})
			if res.Stop != "" {
				tr.Steps, tr.Stopped = st.steps, res.Stop
				return false
			}
		}
		m.sysret(st, res.Ret)
	}
}

// sysret executes the syscall instruction st stands on, with ret as the
// value the program sees in RAX.
func (m *Machine) sysret(st *state, ret int64) {
	inst := m.decodedFor(st.cur.bin).fetch(st.cur.pc)
	st.r.set(x86.RAX, ret)
	st.r.clobber(x86.RCX)
	st.r.clobber(x86.R11)
	st.cur.pc += uint64(inst.Len)
	st.steps++
	m.executed++
}

// next is the machine's one interpreter loop: it steps st until st
// stands on a system-call instruction, which it leaves unexecuted and
// returns "", or until the run ends, returning why.
func (m *Machine) next(st *state) string {
	r, cur, stack, steps := st.r, st.cur, st.stack, st.steps
	maxSteps, maxDepth := m.MaxSteps, m.MaxDepth
	var dcFor *elfx.Binary
	var dc *decoded
	stop := "step budget"
loop:
	for ; steps < maxSteps; steps++ {
		if cur.bin != dcFor {
			dc, dcFor = m.decodedFor(cur.bin), cur.bin
		}
		inst := dc.fetch(cur.pc)
		if inst == nil {
			stop = fmt.Sprintf("pc %#x outside code in %s", cur.pc, cur.bin.Path)
			break
		}
		switch inst.Op {
		case x86.OpBad:
			stop = fmt.Sprintf("undecodable byte in %s", locate(cur))
			break loop
		case x86.OpMovImm:
			r.set(inst.Dst, inst.Imm)
		case x86.OpZeroReg:
			r.set(inst.Dst, 0)
		case x86.OpMovReg:
			if v, ok := r.get(inst.Src); ok {
				r.set(inst.Dst, v)
			} else {
				r.clobber(inst.Dst)
			}
		case x86.OpLeaRIP:
			r.set(inst.Dst, int64(inst.Target))
		case x86.OpSyscall, x86.OpInt80, x86.OpSysenter:
			stop = ""
			break loop
		case x86.OpCallRel:
			if !inst.HasTarget {
				stop = "call without target"
				break loop
			}
			if len(stack) >= maxDepth {
				stop = "call depth exceeded"
				break loop
			}
			ret := frame{bin: cur.bin, pc: cur.pc + uint64(inst.Len), sym: cur.sym}
			next, ok := m.enter(dc, cur, inst.Target)
			if !ok {
				stop = fmt.Sprintf("unresolved call target %#x in %s", inst.Target, cur.bin.Path)
				break loop
			}
			stack = append(stack, ret)
			cur = next
			continue
		case x86.OpJmpRel:
			if !inst.HasTarget {
				stop = "jump without target"
				break loop
			}
			next, ok := m.enter(dc, cur, inst.Target)
			if !ok {
				stop = fmt.Sprintf("unresolved jump target %#x in %s", inst.Target, cur.bin.Path)
				break loop
			}
			cur = next
			continue
		case x86.OpRet:
			if len(stack) == 0 {
				stop = "ret from entry"
				break loop
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			continue
		case x86.OpHalt:
			stop = "halt"
			break loop
		case x86.OpJcc, x86.OpCallIndirect, x86.OpJmpIndirect:
			// Conditional and register-indirect flow is not modeled; the
			// corpus generator only emits RIP-relative indirect jumps
			// inside PLT stubs, which enter() handles below via the call
			// path — reaching one here means real-world code. The stop
			// reason names the binary and section offset: a stop three
			// libraries deep is otherwise unattributable, and replay
			// diagnostics (fault-injection re-runs) key on it.
			stop = fmt.Sprintf("unmodeled control flow in %s (%v)", locate(cur), inst.Op)
			break loop
		case x86.OpOther:
			// Fine: nops and arithmetic without modeled effects.
		}
		cur.pc += uint64(inst.Len)
	}
	m.executed += uint64(steps - st.steps)
	st.r, st.cur, st.stack, st.steps = r, cur, stack, steps
	return stop
}

// enter resolves a control transfer target from a frame of the binary
// dc decodes: straight into this binary's text (inheriting the caller's
// entry symbol), or through a PLT stub into the defining library (the
// resolved import becomes the new frame's entry symbol — the context
// fault-injection policies key on).
func (m *Machine) enter(dc *decoded, from frame, target uint64) (frame, bool) {
	bin := from.bin
	if bin.Text.Contains(target) {
		return frame{bin: bin, pc: target, sym: from.sym}, true
	}
	if !bin.Plt.Contains(target) {
		return frame{}, false
	}
	to, ok := dc.stubs[target]
	if !ok {
		// Decode the stub: jmp [rip+d] whose slot names the import.
		off := target - bin.Plt.Addr
		inst := x86.Decode(bin.Plt.Data[off:], target)
		if inst.Op == x86.OpJmpIndirect && inst.HasTarget {
			if sym, ok := bin.PLTSlots[inst.Target]; ok {
				if lib, addr := m.resolver.ResolveImport(bin, sym); lib != nil {
					to = frame{bin: lib, pc: addr, sym: sym}
				}
			}
		}
		if dc.stubs == nil {
			dc.stubs = make(map[uint64]frame, len(bin.PLTSlots))
		}
		dc.stubs[target] = to
	}
	return to, to.bin != nil
}

// locate renders a frame's position as binary path plus section-relative
// offset — stable across runs, unlike raw virtual addresses shared by
// every library loaded at the same synthetic base.
func locate(f frame) string {
	bin := f.bin
	switch {
	case bin.Text.Contains(f.pc):
		return fmt.Sprintf("%s .text+%#x", bin.Path, f.pc-bin.Text.Addr)
	case bin.Plt.Contains(f.pc):
		return fmt.Sprintf("%s .plt+%#x", bin.Path, f.pc-bin.Plt.Addr)
	}
	return fmt.Sprintf("%s pc %#x", bin.Path, f.pc)
}
