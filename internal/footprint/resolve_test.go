package footprint_test

import (
	"bytes"
	"testing"

	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/elfx"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/x86"
)

// resolverFor registers lib the way a study does, its summary first and
// its image second, and returns the resolver with an importer that needs
// only lib.
func resolverFor(t *testing.T, lib *elfx.Binary) (*footprint.Resolver, *elfx.Binary) {
	t.Helper()
	r := footprint.NewResolver()
	r.AddSummary(footprint.Summarize(footprint.Analyze(lib, footprint.Options{})))
	if !r.AddImage(lib) {
		t.Fatalf("%s: image not registered", lib.Path)
	}
	soname := lib.Soname
	if soname == "" {
		soname = lib.Path
	}
	return r, &elfx.Binary{Path: "app", Needed: []string{soname}}
}

// checkNames requires ResolveImport to bind each name exactly as the
// library's call graph names an exported function: Graph.NodeNamed with
// Exported, the binding the emulator followed when it ran analyses.
func checkNames(t *testing.T, lib *elfx.Binary, names []string) {
	t.Helper()
	r, from := resolverFor(t, lib)
	g := callgraph.Build(lib)
	for _, name := range names {
		got, addr := r.ResolveImport(from, name)
		n := g.NodeNamed(name)
		if n == nil || !n.Exported {
			if got != nil {
				t.Errorf("%s: %q resolves to %#x; the graph exports no such function", lib.Path, name, addr)
			}
			continue
		}
		if got != lib || addr != n.Addr {
			t.Errorf("%s: %q resolves to %v at %#x; the graph exports it at %#x", lib.Path, name, got != nil, addr, n.Addr)
		}
	}
}

// The export table names exactly what the call graph exports, in the
// cases where a symbol table's names and the graph's functions part:
// two exported functions with one name (the last one binds, where
// Binary.FuncNamed answers the first), a local and an exported function
// with one name (the last one decides whether the name resolves at all),
// and two names aliased at one address (the first alias names the
// function, exported because the other alias is).
func TestResolveImportEdgeCases(t *testing.T) {
	lib := &elfx.Binary{
		Path:   "/lib/libedge.so.1",
		Class:  elfx.ClassELFLib,
		Soname: "libedge.so.1",
		Text:   elfx.Section{Addr: 0x1000, Data: bytes.Repeat([]byte{0xc3}, 0x80)}, // ret
		Funcs: []elfx.Symbol{
			{Name: "dup", Addr: 0x1000, Exported: true},
			{Name: "dup", Addr: 0x1010, Exported: true},
			{Name: "mixed", Addr: 0x1020, Exported: true},
			{Name: "mixed", Addr: 0x1030},
			{Name: "late", Addr: 0x1040},
			{Name: "late", Addr: 0x1050, Exported: true},
			{Name: "alias_local", Addr: 0x1060},
			{Name: "alias_export", Addr: 0x1060, Exported: true},
			{Name: "plain", Addr: 0x1070, Exported: true},
		},
	}
	want := map[string]uint64{"dup": 0x1010, "late": 0x1050, "alias_local": 0x1060, "plain": 0x1070}
	names := []string{"dup", "mixed", "late", "alias_local", "alias_export", "plain", "absent"}

	r, from := resolverFor(t, lib)
	for _, name := range names {
		got, addr := r.ResolveImport(from, name)
		if wantAddr, ok := want[name]; ok != (got != nil) || addr != wantAddr || (ok && got != lib) {
			t.Errorf("%q resolves to %v at %#x; want %v at %#x", name, got != nil, addr, ok, wantAddr)
		}
	}
	if f := lib.FuncNamed("dup"); f == nil || f.Addr != 0x1000 {
		t.Errorf("FuncNamed(dup) = %+v; the edge case needs the first of two", f)
	}
	checkNames(t, lib, names)
}

// Every library of the stub-aware planning fixture resolves every name it
// carries as its call graph does.
func TestResolveImportMatchesGraph(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Packages: 40, Installations: 1 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	libs := 0
	for _, name := range c.Repo.Names() {
		for _, f := range c.Repo.Get(name).Files {
			if class, _ := elfx.Classify(f.Data); class != elfx.ClassELFLib {
				continue
			}
			lib, err := elfx.Open(f.Path, f.Data)
			if err != nil {
				t.Fatal(err)
			}
			names := []string{"entry", "text", "absent"}
			for _, fn := range lib.Funcs {
				names = append(names, fn.Name)
			}
			names = append(names, lib.Imports...)
			checkNames(t, lib, names)
			libs++
		}
	}
	if libs == 0 {
		t.Fatal("the fixture has no libraries")
	}
}

// bindingLib builds a library needing needed and exporting each of
// names as a function that issues system call sysno.
func bindingLib(t *testing.T, soname string, needed []string, sysno uint32, names ...string) *elfx.Binary {
	t.Helper()
	b := elfx.NewLib(soname)
	for _, n := range needed {
		b.Needed(n)
	}
	for _, name := range names {
		b.Func(name, true, func(a *x86.Asm) {
			a.MovRegImm32(x86.RAX, sysno)
			a.Syscall()
			a.Ret()
		})
	}
	data, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lib, err := elfx.Open(soname, data)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// An import binds to one library, and the footprint closure and the
// emulator's ResolveImport agree on which: each library below issues its
// own system call, so the importer's footprint names the library its
// import bound to.
func TestLookupBindingRules(t *testing.T) {
	// librt and libc both export timer_create, as in the generated corpus.
	librt := bindingLib(t, "librt.so.1", []string{"libc.so.6"}, 0, "timer_create", "rt_only") // read
	libc := bindingLib(t, "libc.so.6", nil, 1, "timer_create", "c_only")                      // write
	// A second libc registered under the same name replaces the first.
	libc2 := bindingLib(t, "libc.so.6", nil, 39, "timer_create") // getpid
	sysOf := map[*elfx.Binary]string{librt: "read", libc: "write", libc2: "getpid"}

	for _, tc := range []struct {
		name   string
		libs   []*elfx.Binary // in registration order
		needed []string
		sym    string
		want   *elfx.Binary // nil: the import binds nowhere
	}{
		{"needed order picks librt", []*elfx.Binary{libc, librt}, []string{"librt.so.1", "libc.so.6"}, "timer_create", librt},
		{"needed order picks libc", []*elfx.Binary{librt, libc}, []string{"libc.so.6"}, "timer_create", libc},
		{"transitive need", []*elfx.Binary{libc, librt}, []string{"librt.so.1"}, "timer_create", librt},
		{"no exporter needed: first by name", []*elfx.Binary{librt, libc}, []string{"libm.so.6"}, "timer_create", libc},
		{"no need at all: first by name", []*elfx.Binary{librt, libc}, nil, "timer_create", libc},
		{"one exporter binds unneeded", []*elfx.Binary{librt, libc}, []string{"libc.so.6"}, "rt_only", librt},
		{"one exporter binds unregistered need", []*elfx.Binary{librt, libc}, []string{"libm.so.6"}, "c_only", libc},
		{"re-registration replaces", []*elfx.Binary{libc, librt, libc2}, []string{"libc.so.6"}, "timer_create", libc2},
		{"re-registration drops old exports", []*elfx.Binary{libc, librt, libc2}, []string{"libc.so.6"}, "c_only", nil},
		{"nobody exports", []*elfx.Binary{librt, libc}, []string{"libc.so.6"}, "absent", nil},
	} {
		r := footprint.NewResolver()
		for _, lib := range tc.libs {
			r.AddSummary(footprint.Summarize(footprint.Analyze(lib, footprint.Options{})))
			if !r.AddImage(lib) {
				t.Fatalf("%s: %s: image not registered", tc.name, lib.Path)
			}
		}
		got, _ := r.ResolveImport(&elfx.Binary{Path: "app", Needed: tc.needed}, tc.sym)
		if got != tc.want {
			t.Errorf("%s: ResolveImport binds %s to the library issuing %q, want %q (\"\": none)", tc.name, tc.sym, sysOf[got], sysOf[tc.want])
		}
		res := r.FootprintBits(&footprint.Summary{Path: "app", Needed: tc.needed,
			Funcs: []footprint.FuncSummary{{Name: "main", Imports: []string{tc.sym}}}})
		for lib, sys := range sysOf {
			if has := res.APIs.Contains(linuxapi.Sys(sys)); has != (lib == tc.want) {
				t.Errorf("%s: footprint has %s (%s's call): %v, want %v", tc.name, sys, lib.Soname, has, lib == tc.want)
			}
		}
	}
}
