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
// The unit of emulation is a block: the straight line of register-only
// instructions from an entry pc, plus the instruction that ends it. A
// machine decodes each block the first time a run enters it and keeps it
// per binary, so what it stores follows the code that runs, not the size
// of the sections. A block steps as one, except where the step budget
// falls inside it; steps, stops and events are those of stepping one
// instruction at a time.
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

	// dcache memoizes, per binary, the blocks decoded from the entry pcs
	// the machine has run, and where each of its PLT stubs leads. Code
	// bytes are immutable for the life of a Binary, so the cache is exact.
	// A recording and all its replays decode each block once, and the
	// libraries every executable calls into stay decoded from one
	// executable to the next; Forget drops a binary nothing will run
	// again. Storage follows the code that runs, not the size of the
	// sections: code a run never enters is never decoded.
	dcache map[*elfx.Binary]*decoded

	// executed counts the instructions the step loop has executed.
	executed uint64
}

// decoded holds one binary's blocks and its resolved PLT stubs.
type decoded struct {
	// blocks maps an entry pc to the block that starts there. Blocks
	// overlap where a run enters the middle of a straight line, such as
	// a jump into it.
	blocks map[uint64]*block
	// stubs maps a PLT stub's address to the frame a call through it
	// enters (the zero frame: the import resolves nowhere). The machine
	// asks its resolver once per stub, so libraries must be registered
	// before the machine first runs a binary that calls into them.
	stubs map[uint64]frame
}

// block is the unit of emulation: the straight line of register-only
// instructions (OpMovImm, OpZeroReg, OpMovReg, OpLeaRIP, OpOther) that
// starts at an entry pc, plus the instruction that ends it. A run steps
// a block as one: it applies the body's register writes in order, counts
// its n instructions, and then executes end as the one-instruction loop
// would.
type block struct {
	// writes are the body's instructions that write a register, in
	// order; OpOther instructions write none and are only counted.
	writes []x86.Inst
	// n is the number of instructions in the body.
	n int
	// end is the instruction at the pc after the body: a system call, a
	// control transfer, OpRet, OpHalt or OpBad. When that pc lies outside
	// both sections, outside is set and end holds only its Addr.
	end     x86.Inst
	outside bool
}

// writeRegs applies a register-only instruction's effect to r.
func writeRegs(r *regs, inst *x86.Inst) {
	switch inst.Op {
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
	}
}

func (m *Machine) decodedFor(bin *elfx.Binary) *decoded {
	if dc, ok := m.dcache[bin]; ok {
		return dc
	}
	dc := &decoded{blocks: make(map[uint64]*block)}
	if m.dcache == nil {
		m.dcache = make(map[*elfx.Binary]*decoded)
	}
	m.dcache[bin] = dc
	return dc
}

// Forget drops bin's blocks and resolved PLT stubs. Callers done with a
// binary call it so a long-lived machine holds only what later runs
// share; running bin again just decodes it again.
func (m *Machine) Forget(bin *elfx.Binary) { delete(m.dcache, bin) }

// Decoded lists the binaries whose blocks the machine holds, in no
// particular order.
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

// block returns the block of bin that starts at entry, decoding it on
// first use.
func (dc *decoded) block(bin *elfx.Binary, entry uint64) *block {
	if b := dc.blocks[entry]; b != nil {
		return b
	}
	b := &block{}
	dc.blocks[entry] = b
	for pc := entry; ; b.n++ {
		inst, ok := decodeAt(bin, pc)
		if !ok {
			b.end, b.outside = x86.Inst{Addr: pc}, true
			return b
		}
		switch inst.Op {
		case x86.OpMovImm, x86.OpZeroReg, x86.OpMovReg, x86.OpLeaRIP:
			b.writes = append(b.writes, inst)
		case x86.OpOther:
		default:
			b.end = inst
			return b
		}
		pc += uint64(inst.Len)
	}
}

// decodeAt decodes the instruction at pc from whichever of bin's
// sections holds it, reporting false when neither does.
func decodeAt(bin *elfx.Binary, pc uint64) (x86.Inst, bool) {
	for _, sec := range [...]*elfx.Section{&bin.Text, &bin.Plt} {
		if off := pc - sec.Addr; off < uint64(len(sec.Data)) {
			return x86.Decode(sec.Data[off:], pc), true
		}
	}
	return x86.Inst{}, false
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
		stop, n := m.next(st)
		if stop != "" {
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
		m.sysret(st, n, res.Ret)
	}
}

// sysret executes the syscall instruction st stands on, n bytes long,
// with ret as the value the program sees in RAX.
func (m *Machine) sysret(st *state, n int, ret int64) {
	st.r.set(x86.RAX, ret)
	st.r.clobber(x86.RCX)
	st.r.clobber(x86.R11)
	st.cur.pc += uint64(n)
	st.steps++
	m.executed++
}

// next is the machine's one interpreter loop: it steps st a block at a
// time until st stands on a system-call instruction, which it leaves
// unexecuted and returns "" with that instruction's length, or until the
// run ends, returning why. A block that would reach MaxSteps is stepped
// only up to it, so a run stops at exactly MaxSteps instructions.
func (m *Machine) next(st *state) (string, int) {
	r, cur, stack, steps := st.r, st.cur, st.stack, st.steps
	maxSteps, maxDepth := m.MaxSteps, m.MaxDepth
	var dcFor *elfx.Binary
	var dc *decoded
	stop, n := "step budget", 0
loop:
	for steps < maxSteps {
		if cur.bin != dcFor {
			dc, dcFor = m.decodedFor(cur.bin), cur.bin
		}
		b := dc.block(cur.bin, cur.pc)
		if left := maxSteps - steps; b.n >= left {
			// The budget ends inside the body: step its first left
			// instructions one at a time.
			for i := 0; i < left; i++ {
				inst, _ := decodeAt(cur.bin, cur.pc)
				writeRegs(&r, &inst)
				cur.pc += uint64(inst.Len)
			}
			steps = maxSteps
			break
		}
		for i := range b.writes {
			writeRegs(&r, &b.writes[i])
		}
		steps += b.n
		inst := &b.end
		cur.pc = inst.Addr
		if b.outside {
			stop = fmt.Sprintf("pc %#x outside code in %s", cur.pc, cur.bin.Path)
			break
		}
		switch inst.Op {
		case x86.OpBad:
			stop = fmt.Sprintf("undecodable byte in %s", locate(cur))
			break loop
		case x86.OpSyscall, x86.OpInt80, x86.OpSysenter:
			stop, n = "", inst.Len
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
		case x86.OpRet:
			if len(stack) == 0 {
				stop = "ret from entry"
				break loop
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
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
		}
		steps++
	}
	m.executed += uint64(steps - st.steps)
	st.r, st.cur, st.stack, st.steps = r, cur, stack, steps
	return stop, n
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
