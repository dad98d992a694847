package linuxapi

import (
	"sort"
	"sync"
)

// numKinds bounds the Kind enum (KindSyscall..KindLibcSym).
const numKinds = int(KindLibcSym) + 1

// The intern table assigns every API a dense uint32 ID so footprints can
// be represented as bitsets ([]uint64 words) instead of struct-keyed hash
// maps. IDs come in two regions:
//
//   - The static region covers the full declared universe — the syscall
//     table, the ioctl/fcntl/prctl opcode tables, the pseudo-file
//     inventory and the GNU libc export list — sorted by (Kind, Name).
//     These IDs are deterministic across processes and runs: the tables
//     are compile-time constants, so the sorted order is too.
//   - The dynamic region is an append-only tail for APIs outside the
//     declared universe (verbatim pseudo-file paths found in .rodata,
//     unknown client-supplied names). Dynamic IDs are stable within a
//     process but depend on first-intern order, which is why nothing
//     that must be reproducible keys off a dynamic ID — bitset consumers
//     always reduce to APIs or sorted orders before externalizing.
//
// The table is built lazily on first use rather than in an init():
// Ioctls is itself assembled by an init() in vectored.go, and package
// init order within a package follows file order, so an init() here
// could observe an empty Ioctls table.
type internTable struct {
	once      sync.Once
	mu        sync.RWMutex
	ids       map[API]uint32
	apis      []API
	staticLen uint32
	kindLo    [numKinds]uint32
	kindHi    [numKinds]uint32
}

var interned internTable

func (t *internTable) build() {
	seen := make(map[API]bool, 4096)
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
	t.apis = all
	t.staticLen = uint32(len(all))
	t.ids = make(map[API]uint32, len(all))
	for i, a := range all {
		t.ids[a] = uint32(i)
	}
	i := 0
	for k := 0; k < numKinds; k++ {
		lo := i
		for i < len(all) && int(all[i].Kind) == k {
			i++
		}
		t.kindLo[k], t.kindHi[k] = uint32(lo), uint32(i)
	}
}

func (t *internTable) ready() *internTable {
	t.once.Do(t.build)
	return t
}

// InternID returns the dense ID for a, assigning a fresh dynamic ID when
// a is outside the declared universe. Only trusted inputs (the corpus
// pipeline) should intern unknown APIs; query-path code converts with
// InternedID so hostile inputs cannot grow the table.
func InternID(a API) uint32 {
	t := interned.ready()
	t.mu.RLock()
	id, ok := t.ids[a]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[a]; ok {
		return id
	}
	id = uint32(len(t.apis))
	t.apis = append(t.apis, a)
	t.ids[a] = id
	return id
}

// InternedID is the lookup-only form of InternID: it reports the ID for
// a, or false when a has never been interned. It never grows the table.
func InternedID(a API) (uint32, bool) {
	t := interned.ready()
	t.mu.RLock()
	id, ok := t.ids[a]
	t.mu.RUnlock()
	return id, ok
}

// InternedAPI returns the API for a dense ID, or a zero API when the ID
// has not been assigned.
func InternedAPI(id uint32) API {
	apis := InternedAPIs()
	if int(id) >= len(apis) {
		return API{}
	}
	return apis[id]
}

// InternedAPIs returns a snapshot of the table indexed by ID. The
// returned slice must not be modified; entries within its length are
// immutable (growth reallocates), so it is safe to read concurrently
// with interning.
func InternedAPIs() []API {
	t := interned.ready()
	t.mu.RLock()
	apis := t.apis
	t.mu.RUnlock()
	return apis
}

// IsDeclared reports whether a is in the declared universe, the static
// region of the intern table. It reads only the declaring tables' own
// maps, so it takes no lock and never grows the table.
func IsDeclared(a API) bool {
	switch a.Kind {
	case KindSyscall:
		return SyscallByName(a.Name) != nil
	case KindIoctl, KindFcntl, KindPrctl:
		return OpcodeByName(a.Kind, a.Name) != nil
	case KindPseudoFile:
		return PseudoFileByPath(a.Name) != nil
	case KindLibcSym:
		return IsLibcExport(a.Name)
	}
	return false
}

// InternUniverse reports the current number of assigned IDs (static +
// dynamic).
func InternUniverse() int { return len(InternedAPIs()) }

// InternStaticLen reports the size of the static region: IDs below this
// are deterministic across processes.
func InternStaticLen() int { return int(interned.ready().staticLen) }

// InternKindRange reports the half-open static ID range [lo, hi) holding
// every declared API of kind k. Dynamically interned APIs of kind k live
// outside this range, at or above InternStaticLen.
func InternKindRange(k Kind) (lo, hi uint32) {
	t := interned.ready()
	if int(k) >= numKinds {
		return 0, 0
	}
	return t.kindLo[k], t.kindHi[k]
}
