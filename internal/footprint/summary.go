package footprint

import (
	"errors"
	"fmt"

	"repro/internal/callgraph"
	"repro/internal/elfx"
	"repro/internal/linuxapi"
)

// AnalysisVersion tags the extraction logic. Any change that alters what
// Analyze or Summarize produce for the same bytes — new instruction
// semantics, different reachability, a richer string scan — must bump it,
// which invalidates every persisted analysis record at once (the cache
// equivalent of the paper re-running its three-day batch job after an
// analyzer fix).
const AnalysisVersion = 1

// FuncSummary is one function of a summarized binary: the APIs its body
// requests, the imported symbols it calls, and its outgoing call-graph
// edges as indices into Summary.Funcs. It carries everything the
// cross-library closure needs and nothing the disassembler produced.
type FuncSummary struct {
	Name     string `json:"name"`
	Exported bool   `json:"exported,omitempty"`
	// APIs are the system APIs extracted from this function's body
	// (direct syscalls and recovered vectored opcodes).
	APIs []linuxapi.API `json:"apis,omitempty"`
	// Imports are the imported symbols this function calls via the PLT.
	Imports []string `json:"imports,omitempty"`
	// Calls and Taken are direct-call and address-taken edges, as indices
	// into the owning Summary's Funcs slice.
	Calls []int `json:"calls,omitempty"`
	Taken []int `json:"taken,omitempty"`
}

// Summary is the persistent form of an Analysis: the per-binary
// extraction result as per-function records, without the binary or its
// call graph. It is
// exactly what the cross-library footprint aggregation consumes, so a
// cached Summary substitutes for re-disassembling the binary, and it
// serializes to JSON for the content-addressed analysis cache.
type Summary struct {
	Path   string   `json:"path"`
	Soname string   `json:"soname,omitempty"`
	Needed []string `json:"needed,omitempty"`
	// Lib records whether the binary is a shared library (resolver
	// registration target) rather than an executable.
	Lib   bool          `json:"lib,omitempty"`
	Funcs []FuncSummary `json:"funcs"`
	// Entry holds the reachability roots (ELF entry point for
	// executables, exports for libraries) as indices into Funcs.
	Entry []int `json:"entry,omitempty"`
	// Strings are the pseudo-file APIs found in .rodata (binary-wide).
	Strings []linuxapi.API `json:"strings,omitempty"`
	// Sites and Unresolved echo the system-call site census.
	Sites      int `json:"sites"`
	Unresolved int `json:"unresolved"`
	// DirectSyscall mirrors Analysis.DirectSyscallUser.
	DirectSyscall bool `json:"direct_syscall,omitempty"`
	// Opts are the analysis options the summary was extracted under;
	// reachability walks over the summary honor them.
	Opts Options `json:"opts"`
}

// ErrInvalidSummary marks a summary that extraction cannot have produced.
// Summaries read back from disk or from another process (the analysis
// cache, the fleet's workers) are checked before anything resolves them.
var ErrInvalidSummary = errors.New("footprint: invalid summary")

// Check reports whether s names only what extraction can emit, with an
// error wrapping ErrInvalidSummary when it does not: every function API
// must be declared in the static universe, every string must be a
// pseudo-file path, and every Calls, Taken and Entry index must fall
// within Funcs. Resolving a summary interns its function APIs, and the
// corpus path interns its strings, so a summary naming anything else
// would grow the process's API table and every later snapshot's; an
// index outside Funcs would name a function the binary does not have.
func (s *Summary) Check() error {
	n := len(s.Funcs)
	inRange := func(idx []int) bool {
		for _, i := range idx {
			if i < 0 || i >= n {
				return false
			}
		}
		return true
	}
	for i := range s.Funcs {
		f := &s.Funcs[i]
		for _, api := range f.APIs {
			if !linuxapi.IsDeclared(api) {
				return fmt.Errorf("%w: %q: function %q names undeclared %q", ErrInvalidSummary, s.Path, f.Name, api.String())
			}
		}
		if !inRange(f.Calls) || !inRange(f.Taken) {
			return fmt.Errorf("%w: %q: function %q has an edge outside its %d functions", ErrInvalidSummary, s.Path, f.Name, n)
		}
	}
	if !inRange(s.Entry) {
		return fmt.Errorf("%w: %q: an entry index falls outside its %d functions", ErrInvalidSummary, s.Path, n)
	}
	for _, str := range s.Strings {
		if str.Kind != linuxapi.KindPseudoFile || !linuxapi.IsPseudoPath(str.Name) {
			return fmt.Errorf("%w: %q: string %q is not a pseudo-file path", ErrInvalidSummary, s.Path, str.String())
		}
	}
	return nil
}

// Summarize flattens an Analysis into its persistent Summary. The
// conversion is cheap — it copies per-function extraction results and
// rewrites node pointers as indices — so live analyses pay no meaningful
// overhead for producing their cache record.
func Summarize(a *Analysis) *Summary {
	g := a.Graph
	idx := make(map[*callgraph.Node]int, len(g.Funcs))
	for i, n := range g.Funcs {
		idx[n] = i
	}
	s := &Summary{
		Path:          a.Bin.Path,
		Soname:        a.Bin.Soname,
		Needed:        append([]string(nil), a.Bin.Needed...),
		Lib:           a.Bin.Class == elfx.ClassELFLib,
		Funcs:         make([]FuncSummary, len(g.Funcs)),
		Strings:       append([]linuxapi.API(nil), a.strings...),
		Sites:         a.Sites,
		Unresolved:    a.Unresolved,
		DirectSyscall: a.DirectSyscallUser(),
		Opts:          a.opts,
	}
	for i, n := range g.Funcs {
		f := FuncSummary{
			Name:     n.Name,
			Exported: n.Exported,
			APIs:     append([]linuxapi.API(nil), a.direct[n]...),
			Imports:  append([]string(nil), a.calledImports[n]...),
		}
		for _, c := range n.Calls {
			f.Calls = append(f.Calls, idx[c])
		}
		for _, c := range n.Taken {
			f.Taken = append(f.Taken, idx[c])
		}
		s.Funcs[i] = f
	}
	for _, n := range g.EntryNodes() {
		s.Entry = append(s.Entry, idx[n])
	}
	return s
}

// roots returns the reachability roots, falling back to every function
// the way callgraph.EntryNodes does for root-less binaries.
func (s *Summary) roots() []int {
	if len(s.Entry) > 0 {
		return s.Entry
	}
	all := make([]int, len(s.Funcs))
	for i := range all {
		all[i] = i
	}
	return all
}

// walk adds the APIs of every function reachable from roots to out and
// returns the imported symbols those functions call, each once.
func (s *Summary) walk(roots []int, out *BitSet) []string {
	var imports []string
	for _, i := range s.reachable(roots) {
		f := &s.Funcs[i]
		for _, api := range f.APIs {
			out.AddAPI(api)
		}
		imports = append(imports, f.Imports...)
	}
	return dedupe(imports)
}

// reachable walks the summarized call graph from the given roots,
// honoring the summary's analysis options exactly like
// callgraph.Reachable honors them on the live graph.
func (s *Summary) reachable(roots []int) []int {
	if s.Opts.WholeBinary {
		all := make([]int, len(s.Funcs))
		for i := range all {
			all[i] = i
		}
		return all
	}
	followTaken := !s.Opts.NoFunctionPointers
	seen := make([]bool, len(s.Funcs))
	var out, work []int
	push := func(i int) {
		if i >= 0 && i < len(s.Funcs) && !seen[i] {
			seen[i] = true
			work = append(work, i)
			out = append(out, i)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range s.Funcs[i].Calls {
			push(c)
		}
		if followTaken {
			for _, c := range s.Funcs[i].Taken {
				push(c)
			}
		}
	}
	return out
}
