package main

import (
	"fmt"
	"math"
	"testing"
)

// TestStreamFollowsMix checks that each stream draws the endpoints in
// mix's proportions and that only the churn stream sends uploads.
func TestStreamFollowsMix(t *testing.T) {
	p := &profile{
		syscalls: []string{"read", "write", "open", "close"},
		pkgs:     []string{"a", "b"},
		cumW:     []int64{3, 4},
		uploads:  []upload{{name: "a/bin/a", data: []byte{0x7f}}},
	}
	// Random churn sets hold up to 48 calls.
	for i := 0; i < 64; i++ {
		p.all = append(p.all, fmt.Sprintf("call%d", i))
	}
	const n = 200000
	for _, churn := range []bool{false, true} {
		counts := map[string]int{}
		for _, r := range newStream(1, churn, p).take(n) {
			counts[r.ep]++
		}
		total := 0
		for _, m := range mix {
			if m.ep != epAnalyze || churn {
				total += m.weight
			}
		}
		for _, m := range mix {
			want := float64(m.weight) / float64(total)
			if m.ep == epAnalyze && !churn {
				want = 0
			}
			if got := float64(counts[m.ep]) / n; math.Abs(got-want) > 0.01 {
				t.Errorf("churn=%v: %s share %.3f, want %.3f", churn, m.ep, got, want)
			}
		}
	}
}
