package footprint

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/elfx"
	"repro/internal/linuxapi"
	"repro/internal/x86"
)

// buildMiniLibc builds a libc-like library: exported wrappers around real
// system calls, including the generic syscall(2) wrapper whose number
// arrives in a register (and is therefore unresolvable inside the wrapper).
func buildMiniLibc(t *testing.T) *Analysis {
	t.Helper()
	b := elfx.NewLib("libc.so.6")
	b.Func("write", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 1)
		a.Syscall()
		a.Ret()
	})
	b.Func("ioctl", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 16)
		a.Syscall()
		a.Ret()
	})
	b.Func("getpid", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 39)
		a.Syscall()
		a.Ret()
	})
	b.Func("syscall", true, func(a *x86.Asm) {
		// The real wrapper shuffles args; the number comes from the
		// caller's rdi and is unknown here.
		a.MovRegReg(x86.RAX, x86.RDI)
		a.Syscall()
		a.Ret()
	})
	b.Func("exit", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 60)
		a.Syscall()
		a.Ret()
	})
	// An exported function nothing calls: its footprint must not leak into
	// executables that do not use it.
	b.Func("nfsservctl_compat", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 180)
		a.Syscall()
		a.Ret()
	})
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("libc.so.6", data)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(bin, Options{})
}

// buildMidLib builds a library layered on libc (like libpthread).
func buildMidLib(t *testing.T) *Analysis {
	t.Helper()
	b := elfx.NewLib("libmid.so.1")
	b.Needed("libc.so.6")
	writePLT := b.Import("write")
	b.Func("mid_log", true, func(a *x86.Asm) {
		a.CallLabel(writePLT)
		a.Ret()
	})
	b.Func("mid_direct", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 186) // gettid
		a.Syscall()
		a.Ret()
	})
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("libmid.so.1", data)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(bin, Options{})
}

func buildApp(t *testing.T, build func(b *elfx.Builder)) *Analysis {
	t.Helper()
	b := elfx.NewExec()
	build(b)
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("app", data)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(bin, Options{})
}

func newResolver(t *testing.T) *Resolver {
	t.Helper()
	r := NewResolver()
	r.AddLibrary(buildMiniLibc(t))
	r.AddLibrary(buildMidLib(t))
	return r
}

func TestDirectSyscallExtraction(t *testing.T) {
	app := buildApp(t, func(b *elfx.Builder) {
		b.Func("main", true, func(a *x86.Asm) {
			a.MovRegImm32(x86.RAX, 2) // open
			a.Syscall()
			a.MovRegImm32(x86.RAX, 60) // exit
			a.Syscall()
			a.Ret()
		})
		b.Entry("main")
	})
	res := NewResolver().Footprint(app)
	for _, want := range []string{"open", "exit"} {
		if !res.APIs.Contains(linuxapi.Sys(want)) {
			t.Errorf("footprint missing syscall:%s; got %v", want, res.APIs.Sorted())
		}
	}
	if res.Sites != 2 || res.Unresolved != 0 {
		t.Errorf("Sites=%d Unresolved=%d, want 2/0", res.Sites, res.Unresolved)
	}
}

func TestVectoredOpcodeExtractionDirect(t *testing.T) {
	app := buildApp(t, func(b *elfx.Builder) {
		b.Func("main", true, func(a *x86.Asm) {
			a.MovRegImm32(x86.RSI, 0x5413) // TIOCGWINSZ
			a.MovRegImm32(x86.RAX, 16)     // ioctl
			a.Syscall()
			a.MovRegImm32(x86.RDI, 15)  // PR_SET_NAME
			a.MovRegImm32(x86.RAX, 157) // prctl
			a.Syscall()
			a.MovRegImm32(x86.RSI, 3)  // F_GETFL
			a.MovRegImm32(x86.RAX, 72) // fcntl
			a.Syscall()
			a.Ret()
		})
		b.Entry("main")
	})
	res := NewResolver().Footprint(app)
	for _, want := range []linuxapi.API{
		linuxapi.Sys("ioctl"), linuxapi.Ioctl("TIOCGWINSZ"),
		linuxapi.Sys("prctl"), linuxapi.Prctl("PR_SET_NAME"),
		linuxapi.Sys("fcntl"), linuxapi.Fcntl("F_GETFL"),
	} {
		if !res.APIs.Contains(want) {
			t.Errorf("footprint missing %v", want)
		}
	}
}

func TestUnresolvedSyscallNumber(t *testing.T) {
	app := buildApp(t, func(b *elfx.Builder) {
		b.Func("main", true, func(a *x86.Asm) {
			a.MovRegReg(x86.RAX, x86.RBX) // number from untracked register
			a.Syscall()
			a.Ret()
		})
		b.Entry("main")
	})
	res := NewResolver().Footprint(app)
	if res.Sites != 1 || res.Unresolved != 1 {
		t.Errorf("Sites=%d Unresolved=%d, want 1/1", res.Sites, res.Unresolved)
	}
	if len(res.APIs) != 0 {
		t.Errorf("unexpected APIs: %v", res.APIs.Sorted())
	}
}

func TestLibraryClosureThroughPLT(t *testing.T) {
	r := newResolver(t)
	app := buildApp(t, func(b *elfx.Builder) {
		b.Needed("libc.so.6")
		writePLT := b.Import("write")
		b.Func("main", true, func(a *x86.Asm) {
			a.CallLabel(writePLT)
			a.Ret()
		})
		b.Entry("main")
	})
	res := r.Footprint(app)
	if !res.APIs.Contains(linuxapi.Sys("write")) {
		t.Errorf("closure missing syscall:write via libc: %v", res.APIs.Sorted())
	}
	if !res.APIs.Contains(linuxapi.LibcSym("write")) {
		t.Errorf("closure missing libcsym:write")
	}
	// The uncalled libc export must not leak.
	if res.APIs.Contains(linuxapi.Sys("nfsservctl")) {
		t.Error("footprint leaked APIs of uncalled libc exports")
	}
	// exit/getpid are exported but never called by this app.
	if res.APIs.Contains(linuxapi.Sys("getpid")) {
		t.Error("footprint leaked getpid")
	}
}

func TestTwoLevelLibraryClosure(t *testing.T) {
	r := newResolver(t)
	app := buildApp(t, func(b *elfx.Builder) {
		b.Needed("libmid.so.1")
		midPLT := b.Import("mid_log")
		b.Func("main", true, func(a *x86.Asm) {
			a.CallLabel(midPLT)
			a.Ret()
		})
		b.Entry("main")
	})
	res := r.Footprint(app)
	// main -> libmid.mid_log -> libc.write -> syscall:write.
	if !res.APIs.Contains(linuxapi.Sys("write")) {
		t.Errorf("two-level closure missing syscall:write: %v", res.APIs.Sorted())
	}
	// mid_direct (gettid) is exported by libmid but not called.
	if res.APIs.Contains(linuxapi.Sys("gettid")) {
		t.Error("leaked APIs from uncalled export of intermediate library")
	}
}

func TestSyscallWrapperCallSite(t *testing.T) {
	r := newResolver(t)
	app := buildApp(t, func(b *elfx.Builder) {
		b.Needed("libc.so.6")
		syscallPLT := b.Import("syscall")
		b.Func("main", true, func(a *x86.Asm) {
			a.MovRegImm32(x86.RDI, 318) // getrandom via syscall(2)
			a.CallLabel(syscallPLT)
			a.Ret()
		})
		b.Entry("main")
	})
	res := r.Footprint(app)
	if !res.APIs.Contains(linuxapi.Sys("getrandom")) {
		t.Errorf("call-site extraction through syscall(2) failed: %v", res.APIs.Sorted())
	}
	// The wrapper body itself has one unresolvable site; it belongs to
	// libc's analysis, not the app's.
	if res.Unresolved != 0 {
		t.Errorf("app Unresolved = %d, want 0", res.Unresolved)
	}
}

func TestIoctlWrapperCallSiteOpcode(t *testing.T) {
	r := newResolver(t)
	app := buildApp(t, func(b *elfx.Builder) {
		b.Needed("libc.so.6")
		ioctlPLT := b.Import("ioctl")
		b.Func("main", true, func(a *x86.Asm) {
			a.MovRegImm32(x86.RSI, 0x541B) // FIONREAD
			a.CallLabel(ioctlPLT)
			a.Ret()
		})
		b.Entry("main")
	})
	res := r.Footprint(app)
	if !res.APIs.Contains(linuxapi.Ioctl("FIONREAD")) {
		t.Errorf("wrapper call-site opcode missing: %v", res.APIs.Sorted())
	}
	if !res.APIs.Contains(linuxapi.Sys("ioctl")) {
		t.Error("ioctl syscall missing from wrapper closure")
	}
}

func TestPseudoFileStrings(t *testing.T) {
	app := buildApp(t, func(b *elfx.Builder) {
		s1 := b.String("/dev/null")
		s2 := b.String("/proc/%d/cmdline")
		b.String("/etc/passwd") // not a pseudo path
		b.Func("main", true, func(a *x86.Asm) {
			a.LeaRIPLabel(x86.RDI, s1)
			a.LeaRIPLabel(x86.RSI, s2)
			a.Ret()
		})
		b.Entry("main")
	})
	res := NewResolver().Footprint(app)
	if !res.APIs.Contains(linuxapi.Pseudo("/dev/null")) {
		t.Errorf("missing /dev/null: %v", res.APIs.Sorted())
	}
	if !res.APIs.Contains(linuxapi.Pseudo("/proc/%d/cmdline")) {
		t.Error("missing sprintf-pattern pseudo path")
	}
	if res.APIs.Contains(linuxapi.Pseudo("/etc/passwd")) {
		t.Error("non-pseudo path extracted")
	}
}

func TestNoStringsOption(t *testing.T) {
	b := elfx.NewExec()
	b.String("/dev/null")
	b.Func("main", true, func(a *x86.Asm) { a.Ret() })
	b.Entry("main")
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("app", data)
	if err != nil {
		t.Fatal(err)
	}
	res := NewResolver().Footprint(Analyze(bin, Options{NoStrings: true}))
	if len(res.APIs) != 0 {
		t.Errorf("NoStrings still extracted %v", res.APIs.Sorted())
	}
}

func TestReachabilityVsWholeBinary(t *testing.T) {
	build := func(opts Options) *Result {
		b := elfx.NewExec()
		b.Func("main", true, func(a *x86.Asm) {
			a.MovRegImm32(x86.RAX, 0) // read
			a.Syscall()
			a.Ret()
		})
		b.Func("dead", false, func(a *x86.Asm) {
			a.MovRegImm32(x86.RAX, 169) // reboot
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
		return NewResolver().Footprint(Analyze(bin, opts))
	}
	reach := build(Options{})
	if reach.APIs.Contains(linuxapi.Sys("reboot")) {
		t.Error("reachability analysis included dead code")
	}
	whole := build(Options{WholeBinary: true})
	if !whole.APIs.Contains(linuxapi.Sys("reboot")) {
		t.Error("whole-binary ablation should include dead code")
	}
}

func TestFunctionPointerAblation(t *testing.T) {
	build := func(opts Options) *Result {
		b := elfx.NewExec()
		b.Func("main", true, func(a *x86.Asm) {
			a.LeaRIPLabel(x86.RBX, "fn.cb")
			a.Ret()
		})
		b.Func("cb", false, func(a *x86.Asm) {
			a.MovRegImm32(x86.RAX, 41) // socket
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
		return NewResolver().Footprint(Analyze(bin, opts))
	}
	with := build(Options{})
	if !with.APIs.Contains(linuxapi.Sys("socket")) {
		t.Error("address-taken callback not included by default")
	}
	without := build(Options{NoFunctionPointers: true})
	if without.APIs.Contains(linuxapi.Sys("socket")) {
		t.Error("NoFunctionPointers still followed taken edge")
	}
}

func TestSetOperations(t *testing.T) {
	s := make(Set)
	s.Add(linuxapi.Sys("read"))
	s.Add(linuxapi.Sys("read"))
	s.Add(linuxapi.LibcSym("printf"))
	s.Add(linuxapi.Sys("access"))
	if len(s) != 3 {
		t.Errorf("len = %d", len(s))
	}
	sorted := s.Sorted()
	if sorted[0] != linuxapi.Sys("access") || sorted[1] != linuxapi.Sys("read") ||
		sorted[2] != linuxapi.LibcSym("printf") {
		t.Errorf("Sorted = %v", sorted)
	}
	c := s.Clone()
	c.Add(linuxapi.Sys("openat"))
	if s.Contains(linuxapi.Sys("openat")) {
		t.Error("Clone must not alias")
	}
	o := make(Set)
	o.Add(linuxapi.Sys("close"))
	s.AddAll(o)
	if !s.Contains(linuxapi.Sys("close")) {
		t.Error("AddAll failed")
	}
}

func TestCrossLibraryCycleTerminates(t *testing.T) {
	// libA imports from libB and vice versa; closure must terminate and
	// include both sides' syscalls, for an importer of either member,
	// whichever importer is resolved first.
	mk := func(soname, other, fn, otherFn string, sysno uint32) *Analysis {
		b := elfx.NewLib(soname)
		b.Needed(other)
		plt := b.Import(otherFn)
		b.Func(fn, true, func(a *x86.Asm) {
			a.MovRegImm32(x86.RAX, sysno)
			a.Syscall()
			a.CallLabel(plt)
			a.Ret()
		})
		data, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		bin, err := elfx.Open(soname, data)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(bin, Options{})
	}
	liba := mk("liba.so", "libb.so", "a_fn", "b_fn", 0) // read
	libb := mk("libb.so", "liba.so", "b_fn", "a_fn", 1) // write
	importer := func(soname, fn string) *Summary {
		return Summarize(buildApp(t, func(b *elfx.Builder) {
			b.Needed(soname)
			plt := b.Import(fn)
			b.Func("main", true, func(a *x86.Asm) {
				a.CallLabel(plt)
				a.Ret()
			})
			b.Entry("main")
		}))
	}
	apps := []*Summary{importer("liba.so", "a_fn"), importer("libb.so", "b_fn")}
	resolve := func(order ...int) [][]uint32 {
		r := NewResolver()
		r.AddLibrary(liba)
		r.AddLibrary(libb)
		out := make([][]uint32, len(apps))
		for _, i := range order {
			res := r.FootprintBits(apps[i])
			if !res.APIs.Contains(linuxapi.Sys("read")) || !res.APIs.Contains(linuxapi.Sys("write")) {
				t.Errorf("order %v: importer of %s: cyclic closure = %v, want read+write",
					order, apps[i].Funcs[0].Imports, res.APIs.SortedAPIs())
			}
			out[i] = res.APIs.SortedIDs()
		}
		return out
	}
	if ab, ba := resolve(0, 1), resolve(1, 0); !reflect.DeepEqual(ab, ba) {
		t.Errorf("footprints depend on resolution order: %v, then %v", ab, ba)
	}
}

// Resolving uploads leaves the resolver as it found it: imports that no
// library exports add no memoized closure and no export index entry,
// whatever needed list each importer carries.
func TestUnexportedImportsRetainNothing(t *testing.T) {
	r := newResolver(t)
	warm := &Summary{Path: "warm", Needed: []string{"libc.so.6"},
		Funcs: []FuncSummary{{Name: "main", Imports: []string{"write"}}}}
	r.FootprintBits(warm)
	memo, index := len(r.memo), len(r.index)
	for k := 0; k < 20; k++ {
		up := &Summary{Path: fmt.Sprintf("upload%d", k),
			Needed: []string{fmt.Sprintf("libupload%d.so", k), "libc.so.6"},
			Funcs:  []FuncSummary{{Name: "main"}}}
		for i := 0; i < 200; i++ {
			up.Funcs[0].Imports = append(up.Funcs[0].Imports, fmt.Sprintf("upload%d_sym%d", k, i))
		}
		r.FootprintBits(up)
	}
	if len(r.memo) != memo || len(r.index) != index {
		t.Errorf("uploads grew the memo from %d to %d and the export index from %d to %d",
			memo, len(r.memo), index, len(r.index))
	}
}

func TestDirectSyscallUserCensus(t *testing.T) {
	libc := buildMiniLibc(t)
	if !libc.DirectSyscallUser() {
		t.Error("libc issues syscalls directly")
	}
	app := buildApp(t, func(b *elfx.Builder) {
		b.Needed("libc.so.6")
		plt := b.Import("write")
		b.Func("main", true, func(a *x86.Asm) {
			a.CallLabel(plt)
			a.Ret()
		})
		b.Entry("main")
	})
	if app.DirectSyscallUser() {
		t.Error("PLT-only app misclassified as direct syscall user")
	}
}
