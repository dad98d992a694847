package emu

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/x86"
)

// buildLibc assembles a libc-like library exporting write and ioctl.
func buildLibc(t *testing.T) *elfx.Binary {
	t.Helper()
	lib := elfx.NewLib("libc.so.6")
	lib.Func("write", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 1)
		a.Syscall()
		a.Ret()
	})
	lib.Func("ioctl", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 16)
		a.Syscall()
		a.Ret()
	})
	libData, err := lib.Build()
	if err != nil {
		t.Fatal(err)
	}
	libBin, err := elfx.Open("libc.so.6", libData)
	if err != nil {
		t.Fatal(err)
	}
	return libBin
}

// buildPair assembles buildLibc's library, registered with a resolver,
// and an executable using it.
func buildPair(t *testing.T) (*footprint.Resolver, *elfx.Binary) {
	t.Helper()
	libBin := buildLibc(t)
	b := elfx.NewExec()
	b.Needed("libc.so.6")
	writePLT := b.Import("write")
	ioctlPLT := b.Import("ioctl")
	b.Func("main", true, func(a *x86.Asm) {
		a.CallLabel(writePLT)
		a.MovRegImm32(x86.RSI, 0x5413) // TIOCGWINSZ
		a.CallLabel(ioctlPLT)
		a.MovRegImm32(x86.RAX, 60) // exit
		a.XorReg(x86.RDI)
		a.Syscall()
		a.Ret()
	})
	b.Func("never", false, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 169) // reboot — address-taken only
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

	r := footprint.NewResolver()
	r.AddLibrary(footprint.Analyze(libBin, footprint.Options{}))
	return r, bin
}

func TestEmulateCrossLibraryCalls(t *testing.T) {
	r, app := buildPair(t)
	tr, err := New(r).RunImage(app)
	if err != nil {
		t.Fatal(err)
	}
	// Run is RunImage on the analysis's binary.
	viaAnalysis, err := New(r).Run(footprint.Analyze(app, footprint.Options{}))
	if err != nil || !reflect.DeepEqual(viaAnalysis, tr) {
		t.Errorf("Run on the analysis = %+v, %v; RunImage = %+v", viaAnalysis, err, tr)
	}
	if tr.Stopped != "ret from entry" {
		t.Fatalf("stopped: %s after %d steps", tr.Stopped, tr.Steps)
	}
	got := tr.Syscalls()
	for _, want := range []string{"write", "ioctl", "exit"} {
		if !got[want] {
			t.Errorf("dynamic trace missing %s: %v", want, got)
		}
	}
	if got["reboot"] {
		t.Error("dead code executed")
	}
	apis := tr.APIs()
	if !apis.Contains(linuxapi.Ioctl("TIOCGWINSZ")) {
		t.Errorf("vectored opcode not observed dynamically: %v", apis.Sorted())
	}
	// The write event must be attributed to the library.
	var libWrites int
	for _, ev := range tr.Events {
		if ev.KnownNum && ev.Num == 1 && strings.Contains(ev.Binary, "libc") {
			libWrites++
		}
	}
	if libWrites != 1 {
		t.Errorf("write not attributed to libc: %+v", tr.Events)
	}
}

// TestStaticIsSupersetOfDynamic reproduces the paper's §2.3 validation: for
// every executable in a generated corpus, the static footprint must contain
// everything the program actually does.
func TestStaticIsSupersetOfDynamic(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Packages: 200, Installations: 500000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := footprint.NewResolver()
	type execInfo struct {
		pkg string
		a   *footprint.Analysis
	}
	var execs []execInfo
	for _, name := range c.Repo.Names() {
		for _, f := range c.Repo.Get(name).Files {
			class, _ := elfx.Classify(f.Data)
			switch class {
			case elfx.ClassELFLib:
				bin, err := elfx.Open(f.Path, f.Data)
				if err != nil {
					t.Fatal(err)
				}
				r.AddLibrary(footprint.Analyze(bin, footprint.Options{}))
			case elfx.ClassELFExec, elfx.ClassELFStatic:
				bin, err := elfx.Open(f.Path, f.Data)
				if err != nil {
					t.Fatal(err)
				}
				execs = append(execs, execInfo{name, footprint.Analyze(bin, footprint.Options{})})
			}
		}
	}
	if len(execs) < 100 {
		t.Fatalf("only %d executables", len(execs))
	}

	m := New(r)
	var ran, strictSuper int
	for _, e := range execs {
		tr, err := m.Run(e.a)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Stopped != "ret from entry" {
			t.Errorf("%s/%s: emulation stopped: %s", e.pkg, e.a.Bin.Path, tr.Stopped)
			continue
		}
		ran++
		static := r.Footprint(e.a)
		dynamic := tr.APIs()
		for api := range dynamic {
			if !static.APIs.Contains(api) {
				t.Errorf("%s/%s: dynamic %v not in static footprint",
					e.pkg, e.a.Bin.Path, api)
			}
		}
		// Count cases where static is strictly larger (input-dependent
		// paths the paper says dynamic analysis misses).
		var staticSys, dynSys int
		for api := range static.APIs {
			if api.Kind == linuxapi.KindSyscall {
				staticSys++
			}
		}
		for api := range dynamic {
			if api.Kind == linuxapi.KindSyscall {
				dynSys++
			}
		}
		if staticSys > dynSys {
			strictSuper++
		}
	}
	if ran == 0 {
		t.Fatal("nothing emulated")
	}
	t.Logf("emulated %d executables; static strictly larger for %d", ran, strictSuper)
}

// TestStaticCoversDynamicOnLibraryCycle checks §2.3's static ⊇ dynamic
// across a library cycle, whichever member's closure is computed first.
// liba's a_fn issues read and takes the address of a callback that calls
// libb's b_fn (the callback never runs); b_fn issues write and calls
// a_fn. An importer of a_fn is resolved first, and then an importer of
// b_fn is emulated: it executes both calls, so its static footprint must
// name both.
func TestStaticCoversDynamicOnLibraryCycle(t *testing.T) {
	build := func(b *elfx.Builder, path string) *elfx.Binary {
		data, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		bin, err := elfx.Open(path, data)
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	a := elfx.NewLib("liba.so")
	a.Needed("libb.so")
	bPLT := a.Import("b_fn")
	a.Func("a_fn", true, func(as *x86.Asm) {
		as.MovRegImm32(x86.RAX, 0) // read
		as.Syscall()
		as.LeaRIPLabel(x86.RBX, "fn.callback")
		as.Ret()
	})
	a.Func("callback", false, func(as *x86.Asm) {
		as.CallLabel(bPLT)
		as.Ret()
	})
	b := elfx.NewLib("libb.so")
	b.Needed("liba.so")
	aPLT := b.Import("a_fn")
	b.Func("b_fn", true, func(as *x86.Asm) {
		as.MovRegImm32(x86.RAX, 1) // write
		as.Syscall()
		as.CallLabel(aPLT)
		as.Ret()
	})
	importer := func(soname, fn string) *elfx.Binary {
		e := elfx.NewExec()
		e.Needed(soname)
		plt := e.Import(fn)
		e.Func("main", true, func(as *x86.Asm) {
			as.CallLabel(plt)
			as.Ret()
		})
		e.Entry("main")
		return build(e, "app-"+fn)
	}

	r := footprint.NewResolver()
	r.AddLibrary(footprint.Analyze(build(a, "liba.so"), footprint.Options{}))
	r.AddLibrary(footprint.Analyze(build(b, "libb.so"), footprint.Options{}))
	r.Footprint(footprint.Analyze(importer("liba.so", "a_fn"), footprint.Options{}))

	app := importer("libb.so", "b_fn")
	tr, err := New(r).RunImage(app)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != "ret from entry" {
		t.Fatalf("stopped: %s after %d steps", tr.Stopped, tr.Steps)
	}
	if got := tr.Syscalls(); !got["read"] || !got["write"] {
		t.Fatalf("trace issued %v, want read and write", got)
	}
	static := r.Footprint(footprint.Analyze(app, footprint.Options{}))
	for api := range tr.APIs() {
		if !static.APIs.Contains(api) {
			t.Errorf("dynamic %v not in static footprint %v", api, static.APIs.Sorted())
		}
	}
}

func TestEmulateUnresolvedNumber(t *testing.T) {
	b := elfx.NewExec()
	b.Func("main", true, func(a *x86.Asm) {
		a.MovRegReg(x86.RAX, x86.RBX) // untracked
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
	tr, err := New(footprint.NewResolver()).RunImage(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Events[0].KnownNum {
		t.Errorf("events = %+v, want one unknown-number syscall", tr.Events)
	}
	if len(tr.Syscalls()) != 0 {
		t.Error("unknown-number syscall must not name a syscall")
	}
}

func TestEmulateInfiniteLoopBudget(t *testing.T) {
	b := elfx.NewExec()
	b.Func("main", true, func(a *x86.Asm) {
		a.Label("main.spin")
		a.Nop()
		a.JmpLabel("main.spin")
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
	m := New(footprint.NewResolver())
	m.MaxSteps = 1000
	tr, err := m.RunImage(bin)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != "step budget" {
		t.Errorf("stopped = %s", tr.Stopped)
	}
}

func TestRunExport(t *testing.T) {
	r, _ := buildPair(t)
	lib := buildLibc(t)
	tr, err := New(r).RunExport(lib, "write")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Syscalls()["write"] {
		t.Errorf("trace = %v", tr.Syscalls())
	}
	if _, err := New(r).RunExport(lib, "no_such_export"); err == nil {
		t.Error("unknown export must error")
	}
}

func TestDeepRecursionGuard(t *testing.T) {
	b := elfx.NewExec()
	b.Func("main", true, func(a *x86.Asm) {
		a.CallLabel("fn.main") // infinite recursion
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
	m := New(footprint.NewResolver())
	m.MaxDepth = 16
	tr, err := m.RunImage(bin)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != "call depth exceeded" {
		t.Errorf("stopped = %s", tr.Stopped)
	}
}

func TestEmulateNoEntry(t *testing.T) {
	lib := elfx.NewLib("libnoentry.so")
	lib.Func("f", true, func(a *x86.Asm) { a.Ret() })
	data, err := lib.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("libnoentry.so", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(footprint.NewResolver()).RunImage(bin); err == nil {
		t.Error("library without entry must error")
	}
}

func TestEmulateUnresolvedImport(t *testing.T) {
	b := elfx.NewExec()
	b.Needed("libmissing.so")
	plt := b.Import("ghost_function")
	b.Func("main", true, func(a *x86.Asm) {
		a.CallLabel(plt)
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
	// No library registered: the call into the PLT cannot resolve.
	tr, err := New(footprint.NewResolver()).RunImage(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Stopped, "unresolved") {
		t.Errorf("stopped = %q, want unresolved-target report", tr.Stopped)
	}
}

// TestSyscallPolicyInjection checks that a policy's return value is what
// the emulated program observes in RAX, replacing the recording-only
// default, and that the policy sees frame-symbol attribution: calls made
// inside a library wrapper carry the wrapper's export name, raw syscall
// instructions in the executable carry "".
func TestSyscallPolicyInjection(t *testing.T) {
	r, app := buildPair(t)
	m := New(r)
	var ctxs []SyscallContext
	m.Policy = func(ctx SyscallContext) SyscallResult {
		ctxs = append(ctxs, ctx)
		return SyscallResult{Ret: int64(100 + ctx.Index)}
	}
	tr, err := m.RunImage(app)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != "ret from entry" {
		t.Fatalf("stopped: %s", tr.Stopped)
	}
	if len(ctxs) != len(tr.Events) {
		t.Fatalf("policy saw %d calls, trace has %d", len(ctxs), len(tr.Events))
	}
	for i, ctx := range ctxs {
		if ctx.Index != i {
			t.Errorf("occurrence %d reported index %d", i, ctx.Index)
		}
	}
	// buildPair's app: write (via libc wrapper), ioctl (wrapper), raw exit.
	if ctxs[0].Sym != "write" || ctxs[1].Sym != "ioctl" {
		t.Errorf("wrapper attribution = %q, %q, want write, ioctl", ctxs[0].Sym, ctxs[1].Sym)
	}
	if last := ctxs[len(ctxs)-1]; last.Sym != "" {
		t.Errorf("raw syscall in the executable attributed to %q", last.Sym)
	}
}

// TestSyscallPolicyReturnObserved proves the injected value actually
// lands in RAX: the program copies RAX into RDI after the first call, so
// the second event's first argument is the first call's injected return.
func TestSyscallPolicyReturnObserved(t *testing.T) {
	b := elfx.NewExec()
	b.Func("main", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 2) // open
		a.Syscall()
		a.MovRegReg(x86.RDI, x86.RAX) // fd := return value
		a.MovRegImm32(x86.RAX, 3)     // close(fd)
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
	m := New(footprint.NewResolver())
	m.Policy = func(ctx SyscallContext) SyscallResult {
		return SyscallResult{Ret: 7}
	}
	tr, err := m.RunImage(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("events = %+v", tr.Events)
	}
	if !tr.Events[1].ArgsKnown[0] || tr.Events[1].Args[0] != 7 {
		t.Errorf("second call saw rdi=%d (known=%v), want injected 7",
			tr.Events[1].Args[0], tr.Events[1].ArgsKnown[0])
	}
}

// TestSyscallPolicyStop checks that a policy can abort the run with its
// own stop reason, and that the faulted occurrence is still recorded.
func TestSyscallPolicyStop(t *testing.T) {
	r, app := buildPair(t)
	m := New(r)
	m.Policy = func(ctx SyscallContext) SyscallResult {
		if ctx.Index == 1 {
			return SyscallResult{Stop: "fault: injected -ENOSYS was fatal"}
		}
		return SyscallResult{}
	}
	tr, err := m.RunImage(app)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != "fault: injected -ENOSYS was fatal" {
		t.Errorf("stopped = %q", tr.Stopped)
	}
	if tr.Completed() {
		t.Error("policy-stopped run must not report completion")
	}
	if len(tr.Events) != 2 {
		t.Errorf("faulted occurrence missing from trace: %+v", tr.Events)
	}
}

// TestStopReasonNamesBinary is the hardening regression test: an
// unmodeled instruction hit inside a library must name the library and
// its section offset, not just a virtual address every loaded binary
// shares.
func TestStopReasonNamesBinary(t *testing.T) {
	lib := elfx.NewLib("libweird.so.1")
	lib.Func("branchy", true, func(a *x86.Asm) {
		a.Nop()
		a.Label("branchy.self")
		a.JzLabel("branchy.self") // conditional flow: unmodeled
		a.Ret()
	})
	libData, err := lib.Build()
	if err != nil {
		t.Fatal(err)
	}
	libBin, err := elfx.Open("libweird.so.1", libData)
	if err != nil {
		t.Fatal(err)
	}

	b := elfx.NewExec()
	b.Needed("libweird.so.1")
	plt := b.Import("branchy")
	b.Func("main", true, func(a *x86.Asm) {
		a.CallLabel(plt)
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

	r := footprint.NewResolver()
	r.AddLibrary(footprint.Analyze(libBin, footprint.Options{}))
	tr, err := New(r).RunImage(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Stopped, "unmodeled control flow") {
		t.Fatalf("stopped = %q, want unmodeled-control-flow stop", tr.Stopped)
	}
	if !strings.Contains(tr.Stopped, "libweird.so.1") {
		t.Errorf("stop reason %q does not name the binary that hit the stop", tr.Stopped)
	}
	if !strings.Contains(tr.Stopped, ".text+") {
		t.Errorf("stop reason %q does not carry a section offset", tr.Stopped)
	}
}

func TestEmulateHalts(t *testing.T) {
	b := elfx.NewExec()
	b.Func("main", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 60)
		a.Syscall()
		// ud2 terminates the path.
		// (emitted via raw bytes through a nop-wrapped trick: the builder
		// has no Ud2 helper, so use the Halt-class hlt instead.)
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
	tr, err := New(footprint.NewResolver()).RunImage(bin)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Stopped != "ret from entry" || len(tr.Events) != 1 {
		t.Errorf("trace = %+v", tr)
	}
}
