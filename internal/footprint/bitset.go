package footprint

import (
	"math/bits"
	"sort"

	"repro/internal/linuxapi"
)

// BitSet is the dense form of Set: bit i is set exactly when the API
// whose intern ID is i (linuxapi.InternID) is in the footprint. The
// whole declared universe is a few thousand entries, so a footprint is
// a handful of uint64 words and union/subset/count over whole packages
// become word operations instead of map traversals. Set remains the
// JSON/API boundary type; SetBits/ToSet convert losslessly.
type BitSet struct {
	words []uint64
}

// NewBitSet returns an empty bitset.
func NewBitSet() *BitSet { return &BitSet{} }

func (b *BitSet) grow(nWords int) {
	if len(b.words) < nWords {
		w := make([]uint64, nWords)
		copy(w, b.words)
		b.words = w
	}
}

// AddID sets the bit for a dense intern ID.
func (b *BitSet) AddID(id uint32) {
	w := int(id >> 6)
	b.grow(w + 1)
	b.words[w] |= 1 << (id & 63)
}

// AddAPI interns a and sets its bit. Like Set.Add this accepts APIs
// outside the declared universe; only trusted (corpus) inputs should
// reach it, because interning grows the shared table.
func (b *BitSet) AddAPI(a linuxapi.API) { b.AddID(linuxapi.InternID(a)) }

// HasID reports whether the bit for a dense intern ID is set.
func (b *BitSet) HasID(id uint32) bool {
	w := int(id >> 6)
	return w < len(b.words) && b.words[w]&(1<<(id&63)) != 0
}

// Contains mirrors Set's Contains without growing the intern table: an
// API that was never interned cannot be in any bitset.
func (b *BitSet) Contains(a linuxapi.API) bool {
	id, ok := linuxapi.InternedID(a)
	return ok && b.HasID(id)
}

// UnionWith sets every bit of o in b.
func (b *BitSet) UnionWith(o *BitSet) {
	if o == nil {
		return
	}
	b.grow(len(o.words))
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// IntersectWith clears every bit of b not set in o.
func (b *BitSet) IntersectWith(o *BitSet) {
	for i := range b.words {
		if o == nil || i >= len(o.words) {
			b.words[i] = 0
		} else {
			b.words[i] &= o.words[i]
		}
	}
}

// Count reports the number of set bits.
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountMasked reports the number of set bits of b∧mask.
func (b *BitSet) CountMasked(mask *BitSet) int {
	if mask == nil {
		return 0
	}
	n := 0
	for i, w := range b.words {
		if i >= len(mask.words) {
			break
		}
		n += bits.OnesCount64(w & mask.words[i])
	}
	return n
}

// Cap reports the bitset's ID capacity: every member ID is < Cap().
func (b *BitSet) Cap() int { return len(b.words) * 64 }

// Empty reports whether no bit is set.
func (b *BitSet) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Words exposes the backing word slice (bit i of word w is ID w*64+i).
// Callers must treat it as read-only; it is the zero-copy boundary the
// snapshot layer serializes through.
func (b *BitSet) Words() []uint64 { return b.words }

// FromWords wraps an existing word slice as a BitSet without copying.
// The caller must not mutate words afterwards, and the resulting bitset
// must be used read-only: the slice may alias the bytes a snapshot was
// decoded from, which the decoder's caller still owns. Used to serve
// footprints straight out of a snapshot's file buffer.
func FromWords(words []uint64) *BitSet { return &BitSet{words: words} }

// Clone returns an independent copy.
func (b *BitSet) Clone() *BitSet {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &BitSet{words: w}
}

// ForEach calls fn for every set bit in ascending ID order.
func (b *BitSet) ForEach(fn func(id uint32)) {
	for i, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(uint32(i<<6 + bit))
			w &= w - 1
		}
	}
}

// MaskedKey packs the words of b∧mask, trailing zero words trimmed,
// into a string usable as an exact map key. Two bitsets produce the
// same key exactly when their masked contents are equal — no hash
// collisions, so footprint-distinctness counts stay exact.
func (b *BitSet) MaskedKey(mask *BitSet) string {
	n := len(b.words)
	if mask != nil && len(mask.words) < n {
		n = len(mask.words)
	}
	buf := make([]byte, 0, n*8)
	zeros := 0
	for i := 0; i < n; i++ {
		w := b.words[i]
		if mask != nil {
			w &= mask.words[i]
		}
		if w == 0 {
			zeros++
			continue
		}
		for ; zeros > 0; zeros-- {
			buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		}
		buf = append(buf,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return string(buf)
}

// SortedIDs returns the set IDs ordered the way Set.Sorted orders APIs:
// by (Kind, Name). Static IDs are already in that order; dynamically
// interned IDs are merged in by their API value.
func (b *BitSet) SortedIDs() []uint32 {
	staticLen := uint32(linuxapi.InternStaticLen())
	ids := make([]uint32, 0, b.Count())
	var dyn []uint32
	b.ForEach(func(id uint32) {
		if id < staticLen {
			ids = append(ids, id)
		} else {
			dyn = append(dyn, id)
		}
	})
	if len(dyn) == 0 {
		return ids
	}
	apis := linuxapi.InternedAPIs()
	less := func(a, b linuxapi.API) bool {
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Name < b.Name
	}
	sort.Slice(dyn, func(i, j int) bool { return less(apis[dyn[i]], apis[dyn[j]]) })
	out := make([]uint32, 0, len(ids)+len(dyn))
	i, j := 0, 0
	for i < len(ids) && j < len(dyn) {
		if less(apis[ids[i]], apis[dyn[j]]) {
			out = append(out, ids[i])
			i++
		} else {
			out = append(out, dyn[j])
			j++
		}
	}
	out = append(out, ids[i:]...)
	out = append(out, dyn[j:]...)
	return out
}

// SortedAPIs returns the member APIs in Set.Sorted order.
func (b *BitSet) SortedAPIs() []linuxapi.API {
	apis := linuxapi.InternedAPIs()
	ids := b.SortedIDs()
	out := make([]linuxapi.API, len(ids))
	for i, id := range ids {
		out[i] = apis[id]
	}
	return out
}

// ToSet converts back to the map-based boundary type.
func (b *BitSet) ToSet() Set {
	apis := linuxapi.InternedAPIs()
	out := make(Set, b.Count())
	b.ForEach(func(id uint32) { out[apis[id]] = true })
	return out
}

// SetBits converts a Set to its dense form, interning members as
// needed. Use only on trusted sets (corpus-derived); query-supplied
// sets convert with LookupBits.
func SetBits(s Set) *BitSet {
	b := NewBitSet()
	for a := range s {
		b.AddAPI(a)
	}
	return b
}

// LookupBits converts a Set without growing the intern table: members
// that were never interned are dropped, which is lossless for every
// containment/subset test against corpus footprints — an API that was
// never interned cannot be in any of them.
func LookupBits(s Set) *BitSet {
	b := NewBitSet()
	for a := range s {
		if id, ok := linuxapi.InternedID(a); ok {
			b.AddID(id)
		}
	}
	return b
}

// KindMask returns the bitset of every currently interned API of kind
// k: the contiguous static range plus any dynamically interned tail
// entries. Build masks after the sets they filter, or at use time.
func KindMask(k linuxapi.Kind) *BitSet {
	m := NewBitSet()
	lo, hi := linuxapi.InternKindRange(k)
	if hi > lo {
		m.grow(int((hi-1)>>6) + 1)
		for id := lo; id < hi; id++ {
			m.words[id>>6] |= 1 << (id & 63)
		}
	}
	apis := linuxapi.InternedAPIs()
	for id := linuxapi.InternStaticLen(); id < len(apis); id++ {
		if apis[id].Kind == k {
			m.AddID(uint32(id))
		}
	}
	return m
}
