package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// refSuggestNext is SuggestNext as one full reference evaluation of the
// supported set grown by each suggestion in turn.
func refSuggestNext(s *Study, ref *refInput, supported []string, k int) []Suggestion {
	have := make(map[string]bool, len(supported))
	for _, name := range supported {
		have[name] = true
	}
	var out []Suggestion
	acc := append([]string(nil), supported...)
	for _, pt := range s.GreedyPath() {
		if len(out) >= k {
			break
		}
		if have[pt.API.Name] {
			continue
		}
		acc = append(acc, pt.API.Name)
		out = append(out, Suggestion{
			Syscall:    pt.API.Name,
			Importance: pt.Importance,
			CompletenessAfter: refWeightedCompleteness(ref, core.SupportedSyscallSet(acc),
				metrics.CompletenessOptions{Kind: linuxapi.KindSyscall}),
		})
	}
	return out
}

// TestSuggestNextMatchesReference pins SuggestNext, one completeness
// curve, to the reference bit for bit for k = 0..8 over 300 random
// supported sets holding unknown and duplicated names. A list for a
// smaller k is a prefix of the list for 8.
func TestSuggestNextMatchesReference(t *testing.T) {
	s := smallStudy(t)
	ref := refInputOf(s.Core().Input)
	path := s.GreedyPath()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		p := rng.Float64()
		var supported []string
		for _, pt := range path {
			if rng.Float64() < p {
				supported = append(supported, pt.API.Name)
			}
		}
		supported = append(supported, fmt.Sprintf("no_such_call_%d", trial))
		for i := rng.Intn(4); i >= 0; i-- {
			supported = append(supported, supported[rng.Intn(len(supported))])
		}
		rng.Shuffle(len(supported), func(i, j int) { supported[i], supported[j] = supported[j], supported[i] })

		want := refSuggestNext(s, ref, supported, 8)
		for k := 0; k <= 8; k++ {
			got := s.SuggestNext(supported, k)
			if len(got) != min(k, len(want)) {
				t.Fatalf("trial %d k=%d: %d suggestions, want %d", trial, k, len(got), min(k, len(want)))
			}
			for i, g := range got {
				w := want[i]
				if g.Syscall != w.Syscall || g.Importance != w.Importance ||
					math.Float64bits(g.CompletenessAfter) != math.Float64bits(w.CompletenessAfter) {
					t.Fatalf("trial %d k=%d: suggestion %d = %+v, want %+v", trial, k, i, g, w)
				}
			}
		}
	}
}
