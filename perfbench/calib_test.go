package main

import (
	"math"
	"testing"
)

// Host scaling multiplies the computation-bound times, and only those,
// by the nominal loop time over the median calibration sample.
func TestScaleToHostUsesMedianSample(t *testing.T) {
	b := &bench{e2e: map[string]float64{}}
	for _, name := range hostScaled {
		b.e2e[name] = 2
	}
	b.e2e["query_p50_ms"] = 0.2
	nominal := calNominal.Seconds()
	// The median is twice the nominal time; the outlier must not count.
	b.calSamples = []float64{2 * nominal, 2 * nominal, 100 * nominal}
	b.scaleToHost()
	for _, name := range hostScaled {
		if got := b.e2e[name]; math.Abs(got-1) > 1e-12 {
			t.Errorf("%s = %v, want 1", name, got)
		}
	}
	if got := b.e2e["query_p50_ms"]; got != 0.2 {
		t.Errorf("query_p50_ms = %v, want it unscaled", got)
	}
}

func TestCalibratorLeavesItsInputsAlone(t *testing.T) {
	c := newCalibrator()
	first := append([]uint64(nil), c.keys...)
	if d := c.run(); d <= 0 {
		t.Fatalf("run took %v", d)
	}
	for i := range first {
		if c.keys[i] != first[i] {
			t.Fatal("run changed the calibration keys, so later runs would do other work")
		}
	}
}
