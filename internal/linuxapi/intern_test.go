package linuxapi

import (
	"sort"
	"sync"
	"testing"
)

// rebuildExpectedStatic recomputes the static universe the way build()
// must: every declared table, deduped, sorted by (Kind, Name). The test
// deriving it independently is what pins ID determinism — the table is a
// pure function of the compile-time inventories.
func rebuildExpectedStatic() []API {
	seen := map[API]bool{}
	var all []API
	add := func(a API) {
		if !seen[a] {
			seen[a] = true
			all = append(all, a)
		}
	}
	for i := range Syscalls {
		add(Sys(Syscalls[i].Name))
	}
	for _, table := range [][]OpcodeDef{Ioctls, Fcntls, Prctls} {
		for i := range table {
			add(API{Kind: table[i].Kind, Name: table[i].Name})
		}
	}
	for i := range PseudoFiles {
		add(Pseudo(PseudoFiles[i].Path))
	}
	for _, sym := range GNULibcExports {
		add(LibcSym(sym))
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Kind != all[j].Kind {
			return all[i].Kind < all[j].Kind
		}
		return all[i].Name < all[j].Name
	})
	return all
}

func TestInternStaticDeterminism(t *testing.T) {
	want := rebuildExpectedStatic()
	if got := InternStaticLen(); got != len(want) {
		t.Fatalf("static region holds %d IDs, want %d", got, len(want))
	}
	for i, a := range want {
		if id, ok := InternedID(a); !ok || id != uint32(i) {
			t.Fatalf("%v: ID = %d (ok=%v), want %d", a, id, ok, i)
		}
		if got := InternedAPI(uint32(i)); got != a {
			t.Fatalf("InternedAPI(%d) = %v, want %v", i, got, a)
		}
	}
}

// IsDeclared must hold for exactly the static region: every API in it,
// and nothing outside it, whatever its kind.
func TestIsDeclaredMatchesStaticRegion(t *testing.T) {
	for _, a := range rebuildExpectedStatic() {
		if !IsDeclared(a) {
			t.Fatalf("%v is in the static region but not declared", a)
		}
	}
	for _, a := range []API{
		Sys("no_such_syscall"), Ioctl("openat"), Fcntl("NO_SUCH_OP"), Prctl("TIOCGWINSZ"),
		Pseudo("/proc/self/verbatim-tail"), LibcSym("no_such_symbol"), {Kind: Kind(99), Name: "read"},
	} {
		if IsDeclared(a) {
			t.Errorf("%v is outside the static region but declared", a)
		}
	}
}

func TestInternKindRanges(t *testing.T) {
	// KindSyscall sorts first and every syscall name is unique, so the
	// syscall table is exactly the prefix [0, SyscallCount).
	lo, hi := InternKindRange(KindSyscall)
	if lo != 0 || int(hi) != SyscallCount() {
		t.Errorf("syscall range [%d, %d), want [0, %d)", lo, hi, SyscallCount())
	}
	// Ranges are contiguous, ordered by kind, and partition the static
	// region.
	var prev uint32
	for k := KindSyscall; k <= KindLibcSym; k++ {
		lo, hi := InternKindRange(k)
		if lo != prev {
			t.Errorf("kind %v starts at %d, want %d", k, lo, prev)
		}
		if hi < lo {
			t.Errorf("kind %v has inverted range [%d, %d)", k, lo, hi)
		}
		for id := lo; id < hi; id++ {
			if got := InternedAPI(id).Kind; got != k {
				t.Fatalf("ID %d has kind %v inside %v's range", id, got, k)
			}
		}
		prev = hi
	}
	if int(prev) != InternStaticLen() {
		t.Errorf("kind ranges cover [0, %d), static region is [0, %d)", prev, InternStaticLen())
	}
}

func TestInternDynamicAppend(t *testing.T) {
	novel := Pseudo("/proc/self/test-dynamic-intern-entry")
	if _, ok := InternedID(novel); ok {
		t.Fatalf("%v interned before the test ran", novel)
	}
	id := InternID(novel)
	if int(id) < InternStaticLen() {
		t.Errorf("dynamic ID %d landed inside the static region [0, %d)", id, InternStaticLen())
	}
	if again := InternID(novel); again != id {
		t.Errorf("re-interning gave %d, first gave %d", again, id)
	}
	if got, ok := InternedID(novel); !ok || got != id {
		t.Errorf("InternedID = %d (ok=%v), want %d", got, ok, id)
	}
	if got := InternedAPI(id); got != novel {
		t.Errorf("InternedAPI(%d) = %v, want %v", id, got, novel)
	}
}

func TestInternConcurrent(t *testing.T) {
	// Many goroutines intern the same batch of novel APIs; every name
	// must converge on a single ID and the table must stay consistent.
	apis := make([]API, 32)
	for i := range apis {
		apis[i] = Pseudo("/proc/self/concurrent-" + string(rune('a'+i)))
	}
	var wg sync.WaitGroup
	ids := make([][]uint32, 8)
	for g := range ids {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]uint32, len(apis))
			for i, a := range apis {
				out[i] = InternID(a)
			}
			ids[g] = out
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(ids); g++ {
		for i := range apis {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d interned %v as %d, goroutine 0 as %d",
					g, apis[i], ids[g][i], ids[0][i])
			}
		}
	}
	for i, a := range apis {
		if got := InternedAPI(ids[0][i]); got != a {
			t.Errorf("InternedAPI(%d) = %v, want %v", ids[0][i], got, a)
		}
	}
}
