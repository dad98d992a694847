package main

import (
	"testing"
	"time"
)

func TestRankIsNearestRank(t *testing.T) {
	for _, c := range []struct{ p, n, want int }{
		{p50, 1, 1},
		{p50, 10, 5},
		{p50, 11, 6},
		{p99, 100, 99},
		{p99, 1000, 990},
		{99900, 1000, 999},
		{99900, 10000, 9990},
		{p99, 1, 1},
	} {
		if got := rank(c.p, c.n); got != c.want {
			t.Errorf("rank(%d, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

// The quoted tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0},
		{19, 0},     // the median leaves 9 beyond it
		{20, p50},   // the median leaves 10
		{100, p90},  // p90 leaves 10, p99 only 1
		{999, p90},  // p99 is rank 990 and leaves 9
		{1000, p99}, // p99 is rank 990 and leaves exactly 10
		{9999, p99}, // p99.9 is rank 9990 and leaves 9
		{10000, 99900},
		{1000000, 99999},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %s, want %s", c.n, pctName(got), pctName(c.want))
		}
		if got > 0 && c.n-rank(got, c.n) < 10 {
			t.Errorf("tailPercentile(%d) = %s leaves fewer than ten samples beyond it", c.n, pctName(got))
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	var d []time.Duration
	for i := 100; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	sortDurations(d)
	if got := percentile(d, p50); got != 50 {
		t.Errorf("p50 = %d, want 50", got)
	}
	if got := percentile(d, p99); got != 99 {
		t.Errorf("p99 = %d, want 99", got)
	}
	if got := percentile(nil, p99); got != 0 {
		t.Errorf("p99 of nothing = %d, want 0", got)
	}
	xs := []float64{3, 1, 2, 10}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if got := pctName(99900); got != "p99.9" {
		t.Errorf("pctName(99900) = %q", got)
	}
}
