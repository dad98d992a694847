// Package callgraph builds the per-binary whole-program call graph the
// paper's static analysis is based on (§7): functions from the symbol
// table, direct call/tail-call edges, calls through the PLT resolved to
// imported symbols via .rela.plt, and the deliberate over-approximation
// that treats every function whose address is taken (lea with a
// RIP-relative operand landing in .text) as callable from the taking
// function.
package callgraph

import (
	"sort"

	"repro/internal/elfx"
	"repro/internal/x86"
)

// Node is one function in the graph.
type Node struct {
	// Name is the symbol name, or a synthesized "sub_<addr>" for code not
	// covered by any symbol.
	Name string
	// Addr/Size delimit the function body in .text.
	Addr, Size uint64
	// Exported marks dynamic-symbol exports (library entry points).
	Exported bool
	// Calls are direct local callees (calls and tail jumps).
	Calls []*Node
	// Imports are the names of imported symbols this function calls
	// through the PLT.
	Imports []string
	// Taken are functions whose address this function materializes with a
	// RIP-relative lea: the over-approximated indirect-call edges.
	Taken []*Node
}

// Graph is the whole-program call graph of one binary.
type Graph struct {
	Bin    *elfx.Binary
	Funcs  []*Node
	byName map[string]*Node
	// pltSyms maps a PLT stub address to the imported symbol it forwards
	// to, recovered by decoding each stub's jmp [rip+disp] against the
	// relocated GOT slots.
	pltSyms map[uint64]string
}

// Build decodes the binary's text and constructs the graph.
func Build(bin *elfx.Binary) *Graph { return BuildScan(bin, nil) }

// BuildScan is Build that also hands each decoded instruction of every
// function body to scan (when non-nil) as the one decode pass wires its
// edges: by value, in address order within a function, and function by
// function in .text order (the order of Graph.Funcs). The graph keeps no
// instructions, so nothing decoded outlives the pass.
func BuildScan(bin *elfx.Binary, scan func(n *Node, inst x86.Inst)) *Graph {
	g := &Graph{
		Bin:     bin,
		byName:  make(map[string]*Node),
		pltSyms: make(map[uint64]string),
	}

	// Resolve PLT stubs: decode .plt, map stub VA -> import name.
	plt := bin.Plt
	for pos := 0; pos < len(plt.Data); {
		inst := x86.Decode(plt.Data[pos:], plt.Addr+uint64(pos))
		pos += inst.Len
		if inst.Op == x86.OpJmpIndirect && inst.HasTarget {
			if sym, ok := bin.PLTSlots[inst.Target]; ok {
				g.pltSyms[inst.Addr] = sym
			}
		}
	}

	// One node per function range; a recurring name binds its last node.
	for _, f := range Funcs(bin) {
		n := &Node{Name: f.Name, Addr: f.Addr, Size: f.Size, Exported: f.Exported}
		g.Funcs = append(g.Funcs, n)
		g.byName[n.Name] = n
	}

	// Decode each function body once, wiring edges and scanning as it
	// goes.
	text := bin.Text
	for _, n := range g.Funcs {
		lo := n.Addr - text.Addr
		code := text.Data[lo : lo+n.Size]
		for pos := 0; pos < len(code); {
			inst := x86.Decode(code[pos:], n.Addr+uint64(pos))
			pos += inst.Len
			switch inst.Op {
			case x86.OpCallRel, x86.OpJmpRel:
				if !inst.HasTarget {
					break
				}
				if sym, ok := g.pltSyms[inst.Target]; ok {
					n.Imports = appendUnique(n.Imports, sym)
				} else if callee := g.NodeAt(inst.Target); callee != nil && callee != n {
					n.Calls = appendNode(n.Calls, callee)
				}
			case x86.OpLeaRIP:
				if callee := g.NodeAt(inst.Target); callee != nil && inst.Target == callee.Addr {
					// Only function-entry addresses count as taken; a lea
					// into the middle of a function is data arithmetic.
					n.Taken = appendNode(n.Taken, callee)
				}
			}
			if scan != nil {
				scan(n, inst)
			}
		}
	}
	return g
}

// Func is one function's range in .text, as the graph's node for it
// carries it.
type Func struct {
	Name       string
	Addr, Size uint64
	Exported   bool
}

// Funcs splits bin's .text into the graph's functions, in address order:
// symbols inside .text, with gaps (including an uncovered entry point
// and fully-stripped binaries) becoming synthetic functions, so every
// byte of .text belongs to exactly one function. Aliases at one address
// (dynsym ∪ symtab) become one function that keeps the first name and
// is exported when any alias is. A name can still recur at different
// addresses; Graph.NodeNamed answers the last of them.
func Funcs(bin *elfx.Binary) []Func {
	text := bin.Text
	var starts []Func
	for _, f := range bin.Funcs {
		if text.Contains(f.Addr) {
			starts = append(starts, Func{Name: f.Name, Addr: f.Addr, Exported: f.Exported})
		}
	}
	if bin.Entry != 0 && text.Contains(bin.Entry) {
		covered := false
		for _, s := range starts {
			if s.Addr == bin.Entry {
				covered = true
			}
		}
		if !covered {
			starts = append(starts, Func{Name: "entry", Addr: bin.Entry, Exported: true})
		}
	}
	if len(starts) == 0 && len(text.Data) > 0 {
		starts = append(starts, Func{Name: "text", Addr: text.Addr, Exported: true})
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Addr < starts[j].Addr })
	dedup := starts[:0]
	for _, s := range starts {
		if len(dedup) > 0 && dedup[len(dedup)-1].Addr == s.Addr {
			if s.Exported {
				dedup[len(dedup)-1].Exported = true
			}
			continue
		}
		dedup = append(dedup, s)
	}
	textEnd := text.Addr + uint64(len(text.Data))
	for i := range dedup {
		end := textEnd
		if i+1 < len(dedup) {
			end = dedup[i+1].Addr
		}
		dedup[i].Size = end - dedup[i].Addr
	}
	return dedup
}

func appendUnique(ss []string, s string) []string {
	for _, x := range ss {
		if x == s {
			return ss
		}
	}
	return append(ss, s)
}

func appendNode(ns []*Node, n *Node) []*Node {
	for _, x := range ns {
		if x == n {
			return ns
		}
	}
	return append(ns, n)
}

// NodeAt returns the function containing va, or nil.
func (g *Graph) NodeAt(va uint64) *Node {
	i := sort.Search(len(g.Funcs), func(i int) bool { return g.Funcs[i].Addr > va })
	if i == 0 {
		return nil
	}
	n := g.Funcs[i-1]
	if va >= n.Addr+n.Size {
		return nil
	}
	return n
}

// NodeNamed returns the function with the given symbol name, or nil.
func (g *Graph) NodeNamed(name string) *Node { return g.byName[name] }

// EntryNodes returns the roots reachability starts from: the ELF entry
// point for executables, every exported function for shared libraries.
// (The paper measures "system calls reachable from the binary entry point";
// for libraries the entry points are the exports applications can call.)
func (g *Graph) EntryNodes() []*Node {
	var roots []*Node
	if g.Bin.Entry != 0 {
		if n := g.NodeAt(g.Bin.Entry); n != nil {
			roots = append(roots, n)
		}
	}
	for _, n := range g.Funcs {
		if n.Exported {
			roots = appendNode(roots, n)
		}
	}
	if len(roots) == 0 {
		roots = g.Funcs
	}
	return roots
}

// Reachable returns the set of functions reachable from roots. When
// followTaken is set, address-taken edges are traversed too — the paper's
// over-approximation for indirect calls; disabling it is the ablation knob.
func (g *Graph) Reachable(roots []*Node, followTaken bool) []*Node {
	seen := make(map[*Node]bool, len(roots))
	var out []*Node
	var work []*Node
	push := func(n *Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			work = append(work, n)
			out = append(out, n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range n.Calls {
			push(c)
		}
		if followTaken {
			for _, c := range n.Taken {
				push(c)
			}
		}
	}
	return out
}

// ReachableFromEntry is the common full pipeline: roots from EntryNodes
// with function-pointer over-approximation enabled.
func (g *Graph) ReachableFromEntry() []*Node {
	return g.Reachable(g.EntryNodes(), true)
}
