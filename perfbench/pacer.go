package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long before a due time a precise pacer stops
// sleeping and spins. When the Go runtime's processors are idle it waits
// for timers in the network poller, whose timeout is whole milliseconds,
// so time.Sleep wakes up to about 1.1 ms late (0.6 ms at the median on a
// 2-core Linux VM); next to a loopback round trip of well under a
// millisecond that would make the generator, not the server, set the
// latency. A 1 ms window left one send in ten about 50 us late under the
// churn mix; 1.5 ms covers the overshoot. The spin does not
// yield: a goroutine that yields in a loop keeps the run queue non-empty,
// and the Go scheduler then stops polling the network, which delays
// every response by milliseconds.
const spinWindow = 1500 * time.Microsecond

// maxOutstanding is how many requests the load generator keeps in flight: one per
// connection, two connections, sized for two-core machines.
const maxOutstanding = 2

// waitUntil blocks until t. A precise wait sleeps through most of the
// gap and spins the rest, holding a processor while it spins; a coarse
// wait only sleeps, and wakes late by the timer slack.
func waitUntil(t time.Time, precise bool) {
	d := time.Until(t)
	if !precise {
		if d > 0 {
			time.Sleep(d)
		}
		return
	}
	if d > spinWindow {
		time.Sleep(d - spinWindow)
	}
	for time.Now().Before(t) {
	}
}

// loopResult is what one open-loop run measured.
type loopResult struct {
	// Latency holds, ascending, each request's completion time minus its
	// scheduled send time, so a stall that delays later sends is charged
	// to them (coordinated-omission safe).
	Latency []time.Duration
	// Late holds, ascending, how far past schedule the pacer woke for each
	// request it reached before the request was due. Requests the
	// dispatcher reached only after their due time, because it was still
	// handing off an earlier one, are counted in Behind instead: that is
	// backlog, not pacer error.
	Late   []time.Duration
	Behind int
	// Failures counts requests whose send returned an error.
	Failures int
	// OutstandingMax is the most requests that were due but not yet
	// complete at any dispatch.
	OutstandingMax int
	// FinalLag is how long after the last request's due time the run
	// finished; it grows with a backlog the server cannot drain.
	FinalLag time.Duration
}

// lateness classifies one dispatch: the pacer's own delay when it began
// waiting before the due time, or backlog when it got there after.
func lateness(due, reached, woke time.Time) (late time.Duration, behind bool) {
	if reached.After(due) {
		return 0, true
	}
	return woke.Sub(due), false
}

// openLoop sends n requests at a constant arrival rate through
// maxOutstanding workers; send(i) performs request i. Requests are
// dispatched on schedule whether or not earlier ones have finished. When
// every worker is busy the dispatcher waits, and that wait is part of the
// latency of every request it delays. precise selects waitUntil's
// spinning pacer, which costs a processor at rates near 1/spinWindow and
// above; a coarse pacer sends late by the timer slack, in bursts.
func openLoop(rate float64, n int, precise bool, send func(i int) error) loopResult {
	interval := time.Duration(float64(time.Second) / rate)
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job)
	lat := make([]time.Duration, n)
	failed := make([]bool, n)
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxOutstanding; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := send(j.i)
				lat[j.i] = time.Since(j.due)
				failed[j.i] = err != nil
				completed.Add(1)
			}
		}()
	}

	res := loopResult{Late: make([]time.Duration, 0, n)}
	start := time.Now().Add(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		reached := time.Now()
		waitUntil(due, precise)
		woke := time.Now()
		if late, behind := lateness(due, reached, woke); behind {
			res.Behind++
		} else {
			res.Late = append(res.Late, late)
		}
		dueSoFar := min(n, int(woke.Sub(start)/interval)+1)
		if o := dueSoFar - int(completed.Load()); o > res.OutstandingMax {
			res.OutstandingMax = o
		}
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	res.FinalLag = time.Since(start.Add(time.Duration(n-1) * interval))
	for _, f := range failed {
		if f {
			res.Failures++
		}
	}
	res.Latency = sortDurations(lat)
	sortDurations(res.Late)
	return res
}

// searchMaxRate returns the highest arrival rate that passes. It raises
// the rate from start by rampFactor up to the first failing rate
// (lowering it by the same factor instead when start fails), then bisects
// geometrically between the last pass and the first fail until they are
// within resolution of each other, so the answer's step size stays below
// the bound the metric is judged by. Near capacity a rate passes only
// some of the time; a small factor makes the search meet that band from
// below one step at a time instead of jumping past part of it, which made
// the answer land on either side of it from run to run. It stops raising
// at ceiling and returns 0 when nothing down to start/8 passes.
func searchMaxRate(start, ceiling, resolution float64, pass func(rate float64) bool) float64 {
	lo, hi := 0.0, 0.0
	for r := start; ; r *= rampFactor {
		if !pass(r) {
			hi = r
			break
		}
		lo = r
		if r >= ceiling {
			return lo
		}
	}
	for r := hi / rampFactor; lo == 0; r /= rampFactor {
		if r < start/8 {
			return 0
		}
		if pass(r) {
			lo = r
		} else {
			hi = r
		}
	}
	for hi/lo > 1+resolution {
		mid := math.Sqrt(lo * hi)
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// rampFactor is the step by which searchMaxRate raises the rate before
// its first failure.
const rampFactor = 1.25
