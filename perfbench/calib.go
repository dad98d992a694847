package main

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"time"
)

// calNominal is the calibration loop's median time on the host the
// benchmark was tuned on, a shared 2-core VM. A host-scaled time is a
// wall time converted to a host on which the loop takes this long.
const calNominal = 25 * time.Millisecond

// hostScaled are the end-to-end times whose work is computation inside
// the benchmark's process (NOTES.md, Host scaling). query_p50_ms is not
// among them: a loopback round trip is mostly wake-ups and system calls,
// which the calibration loop does not exercise.
var hostScaled = []string{"setup_s", "study_cold_s", "study_warm_s", "replica_ready_s", "plan_cold_s"}

// calibrator times a fixed piece of the benchmark's own work over
// buffers allocated once: a sort of a 1 MiB slice, a 32768-entry map
// fill and a hash of 1 MiB, whose working set exceeds a core's private
// caches as the study build's does, then 128 sorts of an 8 KiB slice,
// branchy work inside the first-level cache as in the emulator runs of
// the plan phase. It calls no code of the repository, so no change to the
// program can move it; only the host's speed can.
type calibrator struct {
	keys, scratch []uint64
	m             map[uint64]uint32
	buf           []byte
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(1))
	c := &calibrator{
		keys:    make([]uint64, 1<<17),
		scratch: make([]uint64, 1<<17),
		m:       make(map[uint64]uint32, 1<<15),
		buf:     make([]byte, 1<<20),
	}
	for i := range c.keys {
		c.keys[i] = r.Uint64()
	}
	r.Read(c.buf)
	return c
}

// run does the fixed work once and returns how long it took.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	copy(c.scratch, c.keys)
	slices.Sort(c.scratch)
	clear(c.m)
	for i, k := range c.keys[:1<<15] {
		c.m[k] = uint32(i)
	}
	sum := sha256.Sum256(c.buf)
	c.buf[0] ^= sum[0]
	small := c.scratch[:1<<10]
	for i := 0; i < 128; i++ {
		copy(small, c.keys[i<<10:])
		slices.Sort(small)
	}
	return time.Since(start)
}

// calibrate samples the host's speed once.
func (b *bench) calibrate() {
	b.calSamples = append(b.calSamples, b.cal.run().Seconds())
}

// scaleToHost converts the host-scaled times from wall seconds on this
// host to seconds on the nominal host: each is multiplied by calNominal
// over the median of the run's calibration samples. The samples are
// taken before every set-up, build step and plan repetition, so they
// cover the same stretch of the run as the times they scale. The wall
// times stay in the report.
func (b *bench) scaleToHost() {
	cal := median(b.calSamples)
	if cal <= 0 {
		return
	}
	f := calNominal.Seconds() / cal
	for _, name := range hostScaled {
		b.note("%s wall time on this host: %.4f s", name, b.e2e[name])
		b.e2e[name] *= f
	}
	b.note("host: calibration loop median %.4f ms over %d samples, nominal %.4f ms; host-scaled times are wall times x %.4f",
		cal*1e3, len(b.calSamples), millis(calNominal), f)
}
