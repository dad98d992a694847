package service

import (
	"bytes"
	"sync/atomic"
	"testing"
)

// BenchmarkServiceCompletenessQuery is the serving-path baseline: the
// same weighted-completeness question answered cold (straight through
// the metrics machinery), warm (a byte-cache hit) and through the
// service with every query missing. Future serving PRs should move the
// cached number, not the uncached one.
func BenchmarkServiceCompletenessQuery(b *testing.B) {
	svc := newTestService(b, Config{})
	path := svc.Snapshot().Study.GreedyPath()
	var names []string
	for _, pt := range path {
		if len(names) >= 145 {
			break
		}
		names = append(names, pt.API.Name)
	}

	b.Run("uncached", func(b *testing.B) {
		study := svc.Snapshot().Study
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			study.WeightedCompleteness(names)
		}
	})

	b.Run("cached", func(b *testing.B) {
		if _, err := svc.CompletenessBytes(-1, names); err != nil { // warm the entry
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc, err := svc.CompletenessBytes(-1, names)
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Contains(enc.Body, []byte(`"cached": true`)) {
				b.Fatal("cache miss on warm entry")
			}
		}
	})

	b.Run("uncached-through-service", func(b *testing.B) {
		// The smallest byte cache holds about two completeness answers
		// per shard; cycling through a thousand distinct supported sets
		// makes every query miss and pay the full metrics cost plus
		// encoding and cache bookkeeping.
		tiny := New(svc.Snapshot().Study, "bench", Config{CacheBytes: 1})
		var sets [][]string
		for i := range names {
			for j := 1; j <= 7; j++ {
				drop := (i + j) % len(names)
				var set []string
				for k, n := range names {
					if k != i && k != drop {
						set = append(set, n)
					}
				}
				sets = append(sets, set)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc, err := tiny.CompletenessBytes(-1, sets[i%len(sets)])
			if err != nil {
				b.Fatal(err)
			}
			if !bytes.Contains(enc.Body, []byte(`"cached": false`)) {
				b.Fatal("unexpected cache hit")
			}
		}
	})
}

// BenchmarkQueryHotPath is the read-path benchmark the serving gate is
// built on: the same parallel mixed-read workload (importance-heavy
// with completeness, suggest and path queries — the shape the load
// generator drives) answered by "compute", the answer builders plus
// encodeAnswer that every byte-cache miss runs, and by "hot", the
// served path (hotset + sharded byte cache + singleflight). Run with
// -benchmem; benchgate derives hotpath_speedup = compute/hot and gates
// it >= 2x.
func BenchmarkQueryHotPath(b *testing.B) {
	svc := newTestService(b, Config{})
	snap := svc.Snapshot()
	path := snap.Study.GreedyPath()
	var names []string
	for _, pt := range path {
		names = append(names, pt.API.Name)
	}
	if len(names) < 40 {
		b.Fatalf("greedy path too short: %d", len(names))
	}
	sets := [][]string{names[:10], names[:25], names[:40]}

	// One mixed operation per iteration, spread deterministically by a
	// shared counter: 4 importance : 2 completeness : 1 suggest : 1 path.
	b.Run("compute", func(b *testing.B) {
		var ctr atomic.Uint64
		study, gen := snap.Study, snap.Generation
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := ctr.Add(1)
				var v any
				status := 200
				switch i % 8 {
				case 0, 1, 2, 3:
					v, status = buildImportance(study, gen, names[i%40])
				case 4, 5:
					known, unknown := normalizeSyscalls(sets[i%3])
					v = buildCompleteness(study, gen, known, unknown)
				case 6:
					known, unknown := normalizeSyscalls(sets[i%3])
					v = buildSuggest(study, gen, known, unknown, 3)
				default:
					v = buildGreedyPrefix(study.GreedyPath(), gen, 0)
				}
				enc, err := encodeAnswer(status, "", v)
				if err != nil {
					b.Fatal(err)
				}
				if len(enc.Body) == 0 {
					b.Fatal("empty answer")
				}
			}
		})
	})

	b.Run("hot", func(b *testing.B) {
		var ctr atomic.Uint64
		for _, set := range sets { // warm the byte cache
			if _, err := svc.CompletenessBytes(-1, set); err != nil {
				b.Fatal(err)
			}
			if _, err := svc.SuggestBytes(-1, set, 3); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := ctr.Add(1)
				var enc Encoded
				var err error
				switch i % 8 {
				case 0, 1, 2, 3:
					enc, err = svc.ImportanceBytes(-1, names[i%40])
				case 4, 5:
					enc, err = svc.CompletenessBytes(-1, sets[i%3])
				case 6:
					enc, err = svc.SuggestBytes(-1, sets[i%3], 3)
				default:
					enc, err = svc.PathBytes(-1, 0)
				}
				if err != nil {
					b.Fatal(err)
				}
				if len(enc.Body) == 0 {
					b.Fatal("empty answer")
				}
			}
		})
	})
}
