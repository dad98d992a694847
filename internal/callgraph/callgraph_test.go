package callgraph

import (
	"reflect"
	"testing"

	"repro/internal/elfx"
	"repro/internal/x86"
)

// buildGraphExec builds an executable with a known call structure:
//
//	main -> a -> b (syscall write)
//	main -> printf@plt
//	main takes address of cb (lea), cb -> ioctl@plt
//	dead is never referenced.
func buildGraphExec(t *testing.T) *Graph {
	t.Helper()
	b := elfx.NewExec()
	b.Needed("libc.so.6")
	printfPLT := b.Import("printf")
	ioctlPLT := b.Import("ioctl")
	b.Func("main", true, func(a *x86.Asm) {
		elfx.CallFunc(a, "a")
		a.CallLabel(printfPLT)
		a.LeaRIPLabel(x86.RBX, "fn.cb")
		a.Ret()
	})
	b.Func("a", false, func(a *x86.Asm) {
		elfx.CallFunc(a, "b")
		a.Ret()
	})
	b.Func("b", false, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 1)
		a.Syscall()
		a.Ret()
	})
	b.Func("cb", false, func(a *x86.Asm) {
		a.CallLabel(ioctlPLT)
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
		t.Fatalf("Build: %v", err)
	}
	bin, err := elfx.Open("graph-exec", data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return Build(bin)
}

func TestGraphStructure(t *testing.T) {
	g := buildGraphExec(t)
	main := g.NodeNamed("main")
	if main == nil {
		t.Fatal("main not found")
	}
	if len(main.Calls) != 1 || main.Calls[0].Name != "a" {
		t.Errorf("main.Calls = %v", names(main.Calls))
	}
	if len(main.Imports) != 1 || main.Imports[0] != "printf" {
		t.Errorf("main.Imports = %v", main.Imports)
	}
	if len(main.Taken) != 1 || main.Taken[0].Name != "cb" {
		t.Errorf("main.Taken = %v", names(main.Taken))
	}
	a := g.NodeNamed("a")
	if len(a.Calls) != 1 || a.Calls[0].Name != "b" {
		t.Errorf("a.Calls = %v", names(a.Calls))
	}
	cb := g.NodeNamed("cb")
	if len(cb.Imports) != 1 || cb.Imports[0] != "ioctl" {
		t.Errorf("cb.Imports = %v", cb.Imports)
	}
}

func names(ns []*Node) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.Name)
	}
	return out
}

func TestReachability(t *testing.T) {
	g := buildGraphExec(t)
	main := g.NodeNamed("main")

	// With function-pointer over-approximation: main, a, b, cb.
	reach := g.Reachable([]*Node{main}, true)
	got := map[string]bool{}
	for _, n := range reach {
		got[n.Name] = true
	}
	for _, want := range []string{"main", "a", "b", "cb"} {
		if !got[want] {
			t.Errorf("with taken edges, %s should be reachable (got %v)", want, got)
		}
	}
	if got["dead"] {
		t.Error("dead must not be reachable")
	}

	// Without the over-approximation cb drops out.
	reach = g.Reachable([]*Node{main}, false)
	got = map[string]bool{}
	for _, n := range reach {
		got[n.Name] = true
	}
	if got["cb"] {
		t.Error("without taken edges, cb must not be reachable")
	}
	if !got["b"] {
		t.Error("direct call chain must stay reachable")
	}
}

func TestEntryNodesExec(t *testing.T) {
	g := buildGraphExec(t)
	roots := g.EntryNodes()
	rootNames := map[string]bool{}
	for _, r := range roots {
		rootNames[r.Name] = true
	}
	// main is both the entry point and the only export.
	if !rootNames["main"] {
		t.Errorf("roots = %v, want main", names(roots))
	}
	if rootNames["dead"] || rootNames["a"] {
		t.Errorf("local functions must not be roots: %v", names(roots))
	}
}

func TestLibraryExportsAreRoots(t *testing.T) {
	b := elfx.NewLib("libx.so.1")
	writePLT := b.Import("write")
	b.Func("x_pub", true, func(a *x86.Asm) {
		elfx.CallFunc(a, "x_priv")
		a.Ret()
	})
	b.Func("x_priv", false, func(a *x86.Asm) {
		a.CallLabel(writePLT)
		a.Ret()
	})
	b.Func("x_unused_pub", true, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 39)
		a.Syscall()
		a.Ret()
	})
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("libx", data)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(bin)
	roots := g.EntryNodes()
	rootNames := map[string]bool{}
	for _, r := range roots {
		rootNames[r.Name] = true
	}
	if !rootNames["x_pub"] || !rootNames["x_unused_pub"] {
		t.Errorf("library roots = %v, want both exports", names(roots))
	}
	if rootNames["x_priv"] {
		t.Errorf("private function must not be a root: %v", names(roots))
	}
	reach := g.ReachableFromEntry()
	seen := map[string]bool{}
	for _, n := range reach {
		seen[n.Name] = true
	}
	if !seen["x_priv"] {
		t.Error("x_priv must be reachable from x_pub")
	}
}

func TestNodeAt(t *testing.T) {
	g := buildGraphExec(t)
	main := g.NodeNamed("main")
	if n := g.NodeAt(main.Addr); n != main {
		t.Errorf("NodeAt(main.Addr) = %v", n)
	}
	if n := g.NodeAt(main.Addr + main.Size - 1); n != main {
		t.Errorf("NodeAt(main end-1) = %v", n)
	}
	if n := g.NodeAt(0x10); n != nil {
		t.Errorf("NodeAt(below text) = %v", n)
	}
	last := g.Funcs[len(g.Funcs)-1]
	if n := g.NodeAt(last.Addr + last.Size); n != nil {
		t.Errorf("NodeAt(above text) = %v", n)
	}
}

func TestTailCallEdges(t *testing.T) {
	b := elfx.NewExec()
	b.Func("main", true, func(a *x86.Asm) {
		a.JmpLabel("fn.tail") // tail call, not call
	})
	b.Func("tail", false, func(a *x86.Asm) {
		a.MovRegImm32(x86.RAX, 60)
		a.Syscall()
		a.Ret()
	})
	b.Entry("main")
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("tailcall", data)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(bin)
	main := g.NodeNamed("main")
	if len(main.Calls) != 1 || main.Calls[0].Name != "tail" {
		t.Errorf("tail call edge missing: %v", names(main.Calls))
	}
}

func TestIntraFunctionJumpIsNotAnEdge(t *testing.T) {
	b := elfx.NewExec()
	b.Func("main", true, func(a *x86.Asm) {
		a.Label("main.loop")
		a.Nop()
		a.JmpLabel("main.loop")
	})
	b.Entry("main")
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := elfx.Open("loop", data)
	if err != nil {
		t.Fatal(err)
	}
	g := Build(bin)
	main := g.NodeNamed("main")
	if len(main.Calls) != 0 {
		t.Errorf("self-loop created edges: %v", names(main.Calls))
	}
}

func TestEveryTextByteBelongsToOneFunction(t *testing.T) {
	g := buildGraphExec(t)
	var prevEnd uint64
	for i, n := range g.Funcs {
		if i == 0 {
			prevEnd = n.Addr
		}
		if n.Addr != prevEnd {
			t.Errorf("function %s starts at %#x, previous ended at %#x", n.Name, n.Addr, prevEnd)
		}
		prevEnd = n.Addr + n.Size
	}
	text := g.Bin.Text
	if prevEnd != text.Addr+uint64(len(text.Data)) {
		t.Errorf("functions end at %#x, text ends at %#x", prevEnd, text.Addr+uint64(len(text.Data)))
	}
}

// TestBuildScanDecodesEachBodyOnce checks what BuildScan hands its scan
// callback: every function's instructions as a linear sweep of its own
// bytes decodes them, function by function in .text order, and nothing
// else.
func TestBuildScanDecodesEachBodyOnce(t *testing.T) {
	bin := buildGraphExec(t).Bin
	type seen struct {
		fn   string
		inst x86.Inst
	}
	var got []seen
	g := BuildScan(bin, func(n *Node, inst x86.Inst) {
		got = append(got, seen{n.Name, inst})
	})
	var want []seen
	for _, n := range g.Funcs {
		lo := n.Addr - bin.Text.Addr
		for _, inst := range x86.DecodeAll(bin.Text.Data[lo:lo+n.Size], n.Addr) {
			want = append(want, seen{n.Name, inst})
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("scan saw %d instructions, a per-function sweep decodes %d; sequences differ", len(got), len(want))
	}
	if plain := Build(bin); !reflect.DeepEqual(names(plain.Funcs), names(g.Funcs)) {
		t.Errorf("Build funcs %v, BuildScan funcs %v", names(plain.Funcs), names(g.Funcs))
	}
}

// TestStrippedBinary simulates a binary with no symbols at all (the
// analyzer must handle stripped real-world binaries): the whole .text
// becomes one synthetic function rooted at the entry point.
func TestStrippedBinary(t *testing.T) {
	a := x86.NewAsm()
	a.MovRegImm32(x86.RAX, 39)
	a.Syscall()
	a.Ret()
	code := a.Finalize(0x401000)
	bin := &elfx.Binary{
		Path:  "stripped",
		Entry: 0x401000,
		Text:  elfx.Section{Addr: 0x401000, Data: code},
	}
	syscalls := make(map[*Node]int)
	g := BuildScan(bin, func(n *Node, inst x86.Inst) {
		if inst.Op == x86.OpSyscall {
			syscalls[n]++
		}
	})
	if len(g.Funcs) != 1 {
		t.Fatalf("funcs = %d, want 1 synthetic", len(g.Funcs))
	}
	roots := g.EntryNodes()
	if len(roots) != 1 || roots[0].Addr != 0x401000 {
		t.Errorf("roots = %v", roots)
	}
	reach := g.ReachableFromEntry()
	if len(reach) != 1 {
		t.Errorf("reachable = %d", len(reach))
	}
	if sys := syscalls[reach[0]]; sys != 1 {
		t.Errorf("syscalls in synthetic function = %d", sys)
	}
}

// TestEntryOutsideSymbols covers an entry point not covered by any symbol:
// a synthetic "entry" node must appear.
func TestEntryOutsideSymbols(t *testing.T) {
	a := x86.NewAsm()
	a.Label("fn.known")
	a.Ret()
	a.Label("realentry")
	a.MovRegImm32(x86.RAX, 60)
	a.Syscall()
	a.Ret()
	code := a.Finalize(0x401000)
	entry, _ := a.LabelAddr("realentry")
	bin := &elfx.Binary{
		Path:  "partial",
		Entry: entry,
		Text:  elfx.Section{Addr: 0x401000, Data: code},
		Funcs: []elfx.Symbol{{Name: "known", Addr: 0x401000, Size: 1}},
	}
	g := Build(bin)
	n := g.NodeAt(entry)
	if n == nil || n.Name != "entry" {
		t.Fatalf("entry node = %v", n)
	}
	if g.NodeNamed("known") == nil {
		t.Error("symbol node lost")
	}
}

// TestEmptyText covers binaries with no code at all.
func TestEmptyText(t *testing.T) {
	bin := &elfx.Binary{Path: "empty"}
	g := Build(bin)
	if len(g.Funcs) != 0 {
		t.Errorf("funcs = %d", len(g.Funcs))
	}
	if roots := g.EntryNodes(); len(roots) != 0 {
		t.Errorf("roots = %v", roots)
	}
	if reach := g.Reachable(nil, true); len(reach) != 0 {
		t.Errorf("reach = %v", reach)
	}
}
