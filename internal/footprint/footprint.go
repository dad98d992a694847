// Package footprint implements the paper's API-footprint extraction (§2.3,
// §7): given a disassembled binary and its call graph, recover every system
// API the binary could request — system calls issued directly (syscall /
// int 0x80 / sysenter instructions with constant-propagated numbers) or via
// libc's syscall(2) wrapper, vectored operation codes for ioctl / fcntl /
// prctl recovered from call-site argument registers, hard-coded pseudo-file
// paths in .rodata (including sprintf patterns such as
// "/proc/%d/cmdline"), and imported libc symbols — and aggregate footprints
// across shared-library dependencies by resolving imports recursively, the
// way the paper's recursive SQL queries do.
package footprint

import (
	"sort"
	"sync"

	"repro/internal/callgraph"
	"repro/internal/elfx"
	"repro/internal/linuxapi"
	"repro/internal/x86"
)

// System-call numbers of the vectored system calls (x86-64).
const (
	sysIoctl = 16
	sysFcntl = 72
	sysPrctl = 157
)

// Options control the analysis; the defaults reproduce the paper's setup.
type Options struct {
	// NoFunctionPointers disables the over-approximation that treats
	// address-taken functions as reachable (ablation knob; §7 describes the
	// lea-tracking over-approximation the paper uses).
	NoFunctionPointers bool
	// WholeBinary scans every function instead of only code reachable from
	// the entry points (ablation knob; the paper argues reachability is
	// what distinguishes its analysis from "all calls that appear in
	// libc").
	WholeBinary bool
	// NoStrings disables the pseudo-file string scan.
	NoStrings bool
}

// Analysis is the per-binary extraction result, before cross-library
// aggregation.
type Analysis struct {
	Bin   *elfx.Binary
	Graph *callgraph.Graph
	opts  Options

	// direct maps each function to the APIs extracted from its body.
	direct map[*callgraph.Node][]linuxapi.API
	// calledImports maps each function to the imported symbols it calls.
	calledImports map[*callgraph.Node][]string
	// strings are the pseudo-file APIs found in .rodata (binary-wide; the
	// paper's string scan does not attribute paths to functions).
	strings []linuxapi.API
	// Unresolved counts system-call sites whose number could not be
	// recovered (the paper reports 2,454 such sites, 4% of the total).
	Unresolved int
	// Sites counts all system-call instruction sites seen.
	Sites int
}

// Analyze disassembles and extracts one binary. The scan runs inside the
// pass that decodes each function and wires the call graph, so every
// instruction is decoded once and none is kept.
func Analyze(bin *elfx.Binary, opts Options) *Analysis {
	a := &Analysis{
		Bin:           bin,
		opts:          opts,
		direct:        make(map[*callgraph.Node][]linuxapi.API),
		calledImports: make(map[*callgraph.Node][]string),
	}
	sc := scanner{a: a}
	a.Graph = callgraph.BuildScan(bin, sc.step)
	if !opts.NoStrings {
		a.scanStrings()
	}
	return a
}

// scanner runs constant propagation over each function body and extracts
// call-site APIs. The graph build hands it the instructions of one
// function after another; the register state restarts at each function.
type scanner struct {
	a  *Analysis
	n  *callgraph.Node
	st x86.RegState
}

// step scans one instruction of n's body.
func (s *scanner) step(n *callgraph.Node, inst x86.Inst) {
	if n != s.n {
		s.n, s.st = n, x86.RegState{}
	}
	a := s.a
	switch inst.Op {
	case x86.OpSyscall, x86.OpInt80, x86.OpSysenter:
		a.Sites++
		num, ok := s.st.Get(x86.RAX)
		if !ok {
			a.Unresolved++
			break
		}
		def := linuxapi.SyscallByNum(int(num))
		if def == nil {
			a.Unresolved++
			break
		}
		s.add(linuxapi.Sys(def.Name))
		switch def.Num {
		case sysIoctl, sysFcntl:
			s.vectored(kindFor(def.Num), x86.RSI)
		case sysPrctl:
			s.vectored(linuxapi.KindPrctl, x86.RDI)
		}
	case x86.OpCallRel:
		if inst.HasTarget {
			if sym, ok := s.pltSym(inst.Target); ok {
				a.calledImports[n] = appendUnique(a.calledImports[n], sym)
				switch sym {
				case "syscall":
					// syscall(number, ...): number in rdi.
					a.Sites++
					if v, ok := s.st.Get(x86.RDI); ok {
						if def := linuxapi.SyscallByNum(int(v)); def != nil {
							s.add(linuxapi.Sys(def.Name))
						} else {
							a.Unresolved++
						}
					} else {
						a.Unresolved++
					}
				case "ioctl":
					s.vectored(linuxapi.KindIoctl, x86.RSI)
				case "fcntl", "fcntl64":
					s.vectored(linuxapi.KindFcntl, x86.RSI)
				case "prctl":
					s.vectored(linuxapi.KindPrctl, x86.RDI)
				}
			}
		}
	case x86.OpJmpRel:
		// Tail call into the PLT: same treatment, minus argument
		// extraction for brevity of real-world tail-call shapes.
		if inst.HasTarget {
			if sym, ok := s.pltSym(inst.Target); ok {
				a.calledImports[n] = appendUnique(a.calledImports[n], sym)
			}
		}
	}
	s.st.Step(inst)
}

func (s *scanner) add(api linuxapi.API) {
	s.a.direct[s.n] = append(s.a.direct[s.n], api)
}

// vectored records the opcode API for a vectored call when the opcode
// register holds a known constant.
func (s *scanner) vectored(kind linuxapi.Kind, reg x86.Reg) {
	if v, ok := s.st.Get(reg); ok {
		if def := linuxapi.OpcodeByCode(kind, uint64(v)); def != nil {
			s.add(linuxapi.API{Kind: kind, Name: def.Name})
		}
	}
}

// pltSym returns the imported symbol the PLT stub at target forwards to.
func (s *scanner) pltSym(target uint64) (string, bool) {
	bin := s.a.Bin
	if !bin.Plt.Contains(target) {
		return "", false
	}
	// Decode the stub at the target to find its GOT slot.
	off := target - bin.Plt.Addr
	inst := x86.Decode(bin.Plt.Data[off:], target)
	if inst.Op == x86.OpJmpIndirect && inst.HasTarget {
		sym, ok := bin.PLTSlots[inst.Target]
		return sym, ok
	}
	return "", false
}

func kindFor(num int) linuxapi.Kind {
	if num == sysIoctl {
		return linuxapi.KindIoctl
	}
	return linuxapi.KindFcntl
}

// scanStrings extracts pseudo-file APIs from .rodata. Every hard-coded
// string that names a pseudo-filesystem path becomes a KindPseudoFile API;
// paths in the curated inventory keep their canonical spelling, others are
// recorded verbatim (the long tail of Figure 6).
func (a *Analysis) scanStrings() {
	for _, ref := range elfx.Strings(a.Bin.Rodata, 5) {
		if !linuxapi.IsPseudoPath(ref.Value) {
			continue
		}
		a.strings = append(a.strings, linuxapi.Pseudo(ref.Value))
	}
}

func appendUnique(ss []string, s string) []string {
	for _, x := range ss {
		if x == s {
			return ss
		}
	}
	return append(ss, s)
}

// Set is an API footprint.
type Set map[linuxapi.API]bool

// Add inserts an API.
func (s Set) Add(api linuxapi.API) { s[api] = true }

// AddAll unions other into s.
func (s Set) AddAll(other Set) {
	for api := range other {
		s[api] = true
	}
}

// Contains reports membership.
func (s Set) Contains(api linuxapi.API) bool { return s[api] }

// Sorted returns the APIs ordered by kind then name, for determinism.
func (s Set) Sorted() []linuxapi.API {
	out := make([]linuxapi.API, 0, len(s))
	for api := range s {
		out = append(out, api)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Clone copies the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for api := range s {
		out[api] = true
	}
	return out
}

// Resolver resolves imported symbols to the shared libraries that export
// them, following DT_NEEDED edges the way the dynamic linker does. All
// closure computation runs over Summary records, so a library restored
// from the persistent analysis cache aggregates exactly like a freshly
// disassembled one. A library's ELF image, when registered, serves the
// emulator (internal/emu); no analysis is kept.
type Resolver struct {
	// mu guards everything below; every method is safe for concurrent
	// use.
	mu       sync.Mutex
	bySoname map[string]*libEntry
	// index maps each exported name to the libraries exporting it, in
	// registration-name order; nil after a registration until rebuilt.
	index map[string][]export
	// memo holds each library export's closure. A closure does not
	// depend on the order closures are computed in, and a memoized
	// bitset is immutable, so callers may read it outside mu.
	memo map[export]*BitSet
}

// libEntry is one registered shared library: its summary (always), and
// its ELF image with the exports the emulator binds imports to (once
// AddLibrary or AddImage supplied them).
type libEntry struct {
	sum *Summary
	bin *elfx.Binary
	// exports maps each name to the address of its function, for exactly
	// the names whose callgraph node is exported: Graph.NodeNamed binds a
	// recurring name to its last function, and aliases at one address
	// share the first alias's name.
	exports map[string]uint64
}

func exportTable(bin *elfx.Binary) map[string]uint64 {
	exports := make(map[string]uint64)
	for _, f := range callgraph.Funcs(bin) {
		if f.Exported {
			exports[f.Name] = f.Addr
		} else {
			delete(exports, f.Name)
		}
	}
	return exports
}

// export is one library's binding of an exported name: the library and
// the index of the function the name binds to.
type export struct {
	lib *libEntry
	fn  int
}

// NewResolver returns an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{
		bySoname: make(map[string]*libEntry),
		memo:     make(map[export]*BitSet),
	}
}

// libName returns the registration key of a summarized library.
func libName(sum *Summary) string {
	if sum.Soname != "" {
		return sum.Soname
	}
	return sum.Path
}

// AddLibrary registers an analyzed shared library under its soname, with
// its image. The analysis itself is not kept.
func (r *Resolver) AddLibrary(a *Analysis) {
	sum := Summarize(a)
	exports := exportTable(a.Bin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(libName(sum), &libEntry{sum: sum, bin: a.Bin, exports: exports})
}

// register stores an entry and drops what a changed library set
// invalidates: the export index and every memoized closure. Callers
// hold r.mu.
func (r *Resolver) register(name string, e *libEntry) {
	r.bySoname[name] = e
	r.index = nil
	clear(r.memo)
}

// AddSummary registers a shared library from its summary alone — the
// analysis-cache hit path, where the binary was never disassembled this
// run.
func (r *Resolver) AddSummary(sum *Summary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(libName(sum), &libEntry{sum: sum})
}

// AddImage supplies the ELF image of a library registered from its
// summary, so the emulator can execute it, without disturbing the
// summary every binding is computed from. Like a summary, the image
// registered last under a name wins. It reports false, and keeps
// nothing, when no library is registered under the image's soname (or
// path, for a soname-less library).
func (r *Resolver) AddImage(bin *elfx.Binary) bool {
	name := bin.Soname
	if name == "" {
		name = bin.Path
	}
	exports := exportTable(bin)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.bySoname[name]
	if ok {
		e.bin, e.exports = bin, exports
	}
	return ok
}

// ResolveImport finds the library image that binds sym for the binary
// from, and the address bound to it, with the lookup the footprint
// closure uses. It returns a nil image when no library exports sym, or
// when the binding library has no image registered, as for a missing
// dependency. The dynamic-analysis cross-check (internal/emu) follows
// calls across binaries with it, the way the dynamic linker would.
func (r *Resolver) ResolveImport(from *elfx.Binary, sym string) (*elfx.Binary, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if x, ok := r.lookup(from.Needed, sym); ok {
		if addr, ok := x.lib.exports[sym]; ok {
			return x.lib.bin, addr
		}
	}
	return nil, 0
}

// lookup finds the export that binds sym for an importer needing needed.
// A name one library exports binds there, whatever the search order. A
// name several export binds to the first of them found breadth-first
// along DT_NEEDED edges (ld.so search order), and failing that to the
// first by registration name (symbols can be satisfied by transitive
// dependencies; the fallback keeps repeated runs identical). Callers
// hold r.mu.
func (r *Resolver) lookup(needed []string, sym string) (export, bool) {
	if r.index == nil {
		r.indexExports()
	}
	xs := r.index[sym]
	switch len(xs) {
	case 0:
		return export{}, false
	case 1:
		return xs[0], true
	}
	seen := map[string]bool{}
	queue := append([]string(nil), needed...)
	for len(queue) > 0 {
		soname := queue[0]
		queue = queue[1:]
		if seen[soname] {
			continue
		}
		seen[soname] = true
		e := r.bySoname[soname]
		if e == nil {
			continue
		}
		for _, x := range xs {
			if x.lib == e {
				return x, true
			}
		}
		queue = append(queue, e.sum.Needed...)
	}
	return xs[0], true
}

// indexExports builds the export index from the registered summaries.
// Within one library a recurring name binds to its last function, and
// only when that function is exported, as Graph.NodeNamed binds it.
// Callers hold r.mu.
func (r *Resolver) indexExports() {
	names := make([]string, 0, len(r.bySoname))
	for name := range r.bySoname {
		names = append(names, name)
	}
	sort.Strings(names)
	r.index = make(map[string][]export)
	for _, name := range names {
		e := r.bySoname[name]
		last := make(map[string]int, len(e.sum.Funcs))
		for i := range e.sum.Funcs {
			last[e.sum.Funcs[i].Name] = i
		}
		for i := range e.sum.Funcs {
			if f := &e.sum.Funcs[i]; f.Exported && last[f.Name] == i {
				r.index[f.Name] = append(r.index[f.Name], export{e, i})
			}
		}
	}
}

// exportClosure returns the APIs reachable by calling one exported
// function of a library: the direct APIs of every function reachable
// within the library, plus the closures of the imports those functions
// call. The returned bitset is memoized and must not be mutated by
// callers. Callers hold r.mu.
func (r *Resolver) exportClosure(x export) *BitSet {
	if c, ok := r.memo[x]; ok {
		return c
	}
	w := closureWalk{r: r, index: make(map[export]int)}
	w.visit(x)
	return r.memo[x]
}

// closureWalk is one Tarjan walk over the export graph, whose edges run
// from an export to the exports its reachable imports bind to. Libraries
// can import from each other in a cycle; every export of a strongly
// connected component memoizes the same complete union, so no closure
// depends on which export was asked for first.
type closureWalk struct {
	r *Resolver
	// index numbers every export visited, in visiting order.
	index map[export]int
	// stack holds the visited exports whose component is not finished,
	// each with the APIs found so far: its own and its finished
	// successors'.
	stack []walkEntry
}

type walkEntry struct {
	x   export
	set *BitSet
}

// visit walks export x and returns its low link: the smallest index
// among the exports on the stack that x reaches. An export that is
// visited and not memoized is on the stack.
func (w *closureWalk) visit(x export) int {
	idx := len(w.index)
	w.index[x] = idx
	low, pos := idx, len(w.stack)
	set := NewBitSet()
	w.stack = append(w.stack, walkEntry{x, set})
	sum := x.lib.sum
	for _, imp := range sum.walk([]int{x.fn}, set) {
		if linuxapi.IsLibcExport(imp) {
			set.AddAPI(linuxapi.LibcSym(imp))
		}
		succ, ok := w.r.lookup(sum.Needed, imp)
		if !ok {
			continue
		}
		c, done := w.r.memo[succ]
		if !done {
			sl, seen := w.index[succ]
			if !seen {
				sl = w.visit(succ)
			}
			if c, done = w.r.memo[succ]; !done {
				// succ is still on the stack: x shares its component.
				low = min(low, sl)
				continue
			}
		}
		set.UnionWith(c)
	}
	if low == idx {
		// x roots a component: the exports from x up the stack.
		comp := w.stack[pos:]
		for _, m := range comp[1:] {
			set.UnionWith(m.set)
		}
		for _, m := range comp {
			w.r.memo[m.x] = set
		}
		w.stack = w.stack[:pos]
	}
	return low
}

// dedupe removes repeated symbols in place, preserving first-occurrence
// order: the same import recurs across a binary's functions, and each
// merge of its (memoized) closure costs the closure's size.
func dedupe(syms []string) []string {
	if len(syms) < 2 {
		return syms
	}
	seen := make(map[string]bool, len(syms))
	out := syms[:0]
	for _, s := range syms {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Result is a binary's fully aggregated footprint.
type Result struct {
	// APIs is the complete footprint including APIs inherited from shared
	// libraries.
	APIs Set
	// Direct is the footprint extracted from this binary's own code and
	// strings only.
	Direct Set
	// Unresolved and Sites echo the per-binary extraction counters.
	Unresolved, Sites int
}

// BitResult is the dense form of Result the aggregation pipeline works
// on. Pseudo-file strings stay out of the bitsets: they can be verbatim
// .rodata paths outside the declared universe, and interning them here
// would let untrusted uploads (the service's ad-hoc analysis path) grow
// the shared intern table without bound. Callers on the trusted corpus
// path intern them explicitly; Result-producing wrappers add them to
// both map sets, matching the pre-bitset behavior.
type BitResult struct {
	// APIs is the complete footprint including APIs inherited from
	// shared libraries (strings excluded; see Strings).
	APIs *BitSet
	// Direct holds the APIs extracted from this binary's own code
	// (strings excluded).
	Direct *BitSet
	// Strings echoes the binary's pseudo-file string APIs, uninterned.
	// They belong to both the direct and the full footprint.
	Strings []linuxapi.API
	// Unresolved and Sites echo the per-binary extraction counters.
	Unresolved, Sites int
}

// Footprint aggregates the full footprint of one analyzed binary: its own
// reachable APIs plus the recursive closure over imported symbols.
func (r *Resolver) Footprint(a *Analysis) *Result {
	br := r.FootprintBits(Summarize(a))
	res := &Result{
		APIs:       br.APIs.ToSet(),
		Direct:     br.Direct.ToSet(),
		Unresolved: br.Unresolved,
		Sites:      br.Sites,
	}
	for _, api := range br.Strings {
		res.Direct.Add(api)
		res.APIs.Add(api)
	}
	return res
}

// FootprintBits aggregates a binary's footprint in dense form, from its
// summary: the analysis-cache hit path gets exactly what Footprint gets
// on the live analysis. Every import adds its libc-symbol API, when it
// names a GNU libc export, and the closure of the export it binds to.
// Every API added is in the static intern universe (extraction only
// emits names from the declared tables), so interning never grows the
// shared table.
func (r *Resolver) FootprintBits(sum *Summary) *BitResult {
	res := &BitResult{
		APIs:       NewBitSet(),
		Direct:     NewBitSet(),
		Strings:    sum.Strings,
		Unresolved: sum.Unresolved,
		Sites:      sum.Sites,
	}
	imports := sum.walk(sum.roots(), res.Direct)
	for _, imp := range imports {
		if linuxapi.IsLibcExport(imp) {
			res.APIs.AddAPI(linuxapi.LibcSym(imp))
		}
	}
	// Resolve under the lock; union the (immutable) closures outside it.
	r.mu.Lock()
	closures := make([]*BitSet, 0, len(imports))
	for _, imp := range imports {
		if x, ok := r.lookup(sum.Needed, imp); ok {
			closures = append(closures, r.exportClosure(x))
		}
	}
	r.mu.Unlock()
	for _, c := range closures {
		res.APIs.UnionWith(c)
	}
	res.APIs.UnionWith(res.Direct)
	return res
}

// DirectSyscallUser reports whether the binary's own code (not its
// libraries) issues system-call instructions — the census in §7: "only
// 7,259 executables and 2,752 shared libraries issue system calls".
func (a *Analysis) DirectSyscallUser() bool {
	for _, apis := range a.direct {
		for _, api := range apis {
			if api.Kind == linuxapi.KindSyscall {
				return true
			}
		}
	}
	return a.Sites > 0 && a.Unresolved == a.Sites
}
