package footprint

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linuxapi"
)

// bitsetPool mixes static-universe APIs of every kind with dynamic
// entries (verbatim pseudo-paths outside the inventory) so the property
// tests cover both intern regions.
func bitsetPool() []linuxapi.API {
	var pool []linuxapi.API
	for _, d := range linuxapi.Syscalls[:60] {
		pool = append(pool, linuxapi.Sys(d.Name))
	}
	for _, d := range linuxapi.Ioctls[:20] {
		pool = append(pool, linuxapi.API{Kind: d.Kind, Name: d.Name})
	}
	for _, d := range linuxapi.Fcntls[:5] {
		pool = append(pool, linuxapi.API{Kind: d.Kind, Name: d.Name})
	}
	for _, d := range linuxapi.PseudoFiles[:10] {
		pool = append(pool, linuxapi.Pseudo(d.Path))
	}
	for _, s := range linuxapi.GNULibcExports[:40] {
		pool = append(pool, linuxapi.LibcSym(s))
	}
	for i := 0; i < 15; i++ {
		pool = append(pool, linuxapi.Pseudo(fmt.Sprintf("/proc/bitset-test/dyn%02d", i)))
	}
	return pool
}

func randomSet(rng *rand.Rand, pool []linuxapi.API) Set {
	s := Set{}
	n := rng.Intn(len(pool))
	for i := 0; i < n; i++ {
		s.Add(pool[rng.Intn(len(pool))])
	}
	return s
}

// TestBitSetEquivalence is the property check the rewrite rests on:
// random Sets round-trip losslessly through BitSet, and every bitset
// operation agrees with the map implementation.
func TestBitSetEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pool := bitsetPool()
	for trial := 0; trial < 200; trial++ {
		s1, s2 := randomSet(rng, pool), randomSet(rng, pool)
		b1, b2 := SetBits(s1), SetBits(s2)

		// Round trip.
		if got := b1.ToSet(); !reflect.DeepEqual(map[linuxapi.API]bool(got), map[linuxapi.API]bool(s1)) {
			t.Fatalf("trial %d: round trip lost members: %v != %v", trial, got, s1)
		}
		// Count.
		if b1.Count() != len(s1) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, b1.Count(), len(s1))
		}
		// Contains over the whole pool.
		for _, a := range pool {
			if b1.Contains(a) != s1.Contains(a) {
				t.Fatalf("trial %d: Contains(%v) = %v, map says %v",
					trial, a, b1.Contains(a), s1.Contains(a))
			}
		}
		// Sorted order matches Set.Sorted exactly (static prefix merged
		// with the dynamic tail).
		if got, want := b1.SortedAPIs(), s1.Sorted(); !reflect.DeepEqual(got, want) {
			if len(got) != 0 || len(want) != 0 {
				t.Fatalf("trial %d: SortedAPIs = %v, want %v", trial, got, want)
			}
		}
		// Union.
		union := s1.Clone()
		union.AddAll(s2)
		bu := b1.Clone()
		bu.UnionWith(b2)
		if !reflect.DeepEqual(map[linuxapi.API]bool(bu.ToSet()), map[linuxapi.API]bool(union)) {
			t.Fatalf("trial %d: union disagrees with map union", trial)
		}
		// Intersect.
		inter := Set{}
		for a := range s1 {
			if s2.Contains(a) {
				inter.Add(a)
			}
		}
		bi := b1.Clone()
		bi.IntersectWith(b2)
		if !reflect.DeepEqual(map[linuxapi.API]bool(bi.ToSet()), map[linuxapi.API]bool(inter)) {
			t.Fatalf("trial %d: intersect disagrees with map intersect", trial)
		}
	}
}

func TestBitSetMaskedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	pool := bitsetPool()
	mask := KindMask(linuxapi.KindSyscall)
	for trial := 0; trial < 100; trial++ {
		s1, s2 := randomSet(rng, pool), randomSet(rng, pool)
		b1, b2 := SetBits(s1), SetBits(s2)

		nSys := 0
		for a := range s1 {
			if a.Kind == linuxapi.KindSyscall {
				nSys++
			}
		}
		if got := b1.CountMasked(mask); got != nSys {
			t.Fatalf("trial %d: CountMasked = %d, want %d", trial, got, nSys)
		}

		// MaskedKey is an exact fingerprint of the masked contents.
		k1, k2 := b1.MaskedKey(mask), b2.MaskedKey(mask)
		sameSyscalls := b1.Clone()
		sameSyscalls.IntersectWith(mask)
		other := b2.Clone()
		other.IntersectWith(mask)
		if (k1 == k2) != reflect.DeepEqual(sameSyscalls.ToSet(), other.ToSet()) {
			t.Fatalf("trial %d: MaskedKey equality diverges from masked set equality", trial)
		}
	}
}

func TestLookupBitsDropsUninterned(t *testing.T) {
	known := linuxapi.Sys("read")
	unknown := linuxapi.LibcSym("bitset_test_never_interned_symbol")
	if _, ok := linuxapi.InternedID(unknown); ok {
		t.Fatalf("%v unexpectedly interned", unknown)
	}
	s := Set{}
	s.Add(known)
	s.Add(unknown)
	b := LookupBits(s)
	if !b.Contains(known) || b.Count() != 1 {
		t.Errorf("LookupBits kept %d members (contains read: %v), want just read",
			b.Count(), b.Contains(known))
	}
	if _, ok := linuxapi.InternedID(unknown); ok {
		t.Errorf("LookupBits interned %v", unknown)
	}
}
