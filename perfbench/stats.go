package main

import (
	"sort"
	"strconv"
	"time"
)

// Percentiles are written in hundred-thousandths (99900 is p99.9) so the
// rank arithmetic stays exact in integers: in floating point 0.999*10000
// rounds past 9990, and a tail with exactly ten samples beyond it would
// read as having nine.
const (
	p50 = 50000
	p90 = 90000
	p99 = 99000
)

// tailLadder lists the percentiles a latency report may quote, lowest
// first.
var tailLadder = []int{50000, 90000, 99000, 99900, 99990, 99999}

// rank returns the 1-based nearest-rank position of percentile p in a
// sample of n.
func rank(p, n int) int {
	r := (p*n + 99999) / 100000
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of an ascending
// sample (0 for an empty one).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailPercentile returns the highest ladder percentile that has at least
// ten samples beyond it in a sample of n, so a quoted tail never rests on
// one or two observations; 0 when not even the median has ten.
func tailPercentile(n int) int {
	best := 0
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// pctName renders a percentile as "p99.9".
func pctName(p int) string {
	return "p" + strconv.FormatFloat(float64(p)/1000, 'f', -1, 64)
}

// sortDurations sorts a sample in place and returns it.
func sortDurations(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is the median of a duration sample.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
