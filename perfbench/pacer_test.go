package main

import (
	"errors"
	"testing"
	"time"
)

func TestLatenessSeparatesPacerErrorFromBacklog(t *testing.T) {
	due := time.Unix(100, 0)
	// The pacer began waiting before the due time and woke 3µs after it.
	late, behind := lateness(due, due.Add(-time.Millisecond), due.Add(3*time.Microsecond))
	if behind || late != 3*time.Microsecond {
		t.Errorf("on-time dispatch: late %v, behind %v", late, behind)
	}
	// The dispatcher only got to the request after it was due: backlog.
	late, behind = lateness(due, due.Add(time.Millisecond), due.Add(time.Millisecond))
	if !behind || late != 0 {
		t.Errorf("backlogged dispatch: late %v, behind %v", late, behind)
	}
}

func TestOpenLoopAccountsEveryRequest(t *testing.T) {
	const n = 200
	res := openLoop(2000, n, true, func(i int) error {
		if i%50 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if len(res.Latency) != n {
		t.Fatalf("%d latencies for %d requests", len(res.Latency), n)
	}
	if got := len(res.Late) + res.Behind; got != n {
		t.Errorf("on-time %d + behind %d = %d dispatches, want %d", len(res.Late), res.Behind, got, n)
	}
	if res.Failures != n/50 {
		t.Errorf("failures = %d, want %d", res.Failures, n/50)
	}
	if res.OutstandingMax < 1 {
		t.Errorf("outstanding max %d, want at least the request being sent", res.OutstandingMax)
	}
	for i := 1; i < len(res.Latency); i++ {
		if res.Latency[i] < res.Latency[i-1] {
			t.Fatal("latencies are not sorted")
		}
	}
}

// A server that takes longer than the arrival interval builds a backlog.
// The open loop keeps the schedule, so later requests are charged the
// time they waited for a worker, not just their service time.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	const (
		n       = 40
		service = 4 * time.Millisecond
		rate    = 1000 // one due every 1ms; two workers finish one every 2ms
	)
	res := openLoop(rate, n, false, func(int) error {
		time.Sleep(service)
		return nil
	})
	if res.Behind == 0 {
		t.Error("no dispatch counted as behind schedule under a growing backlog")
	}
	// The last request is due at 39ms and can start no earlier than
	// n/maxOutstanding*service = 80ms, so it waits at least ~40ms.
	worst := res.Latency[len(res.Latency)-1]
	if worst < 30*time.Millisecond {
		t.Errorf("worst latency %v does not include the backlog wait", worst)
	}
	if res.OutstandingMax <= maxOutstanding {
		t.Errorf("outstanding max %d, want more than the %d in flight", res.OutstandingMax, maxOutstanding)
	}
	if res.FinalLag < 30*time.Millisecond {
		t.Errorf("final lag %v does not show the backlog", res.FinalLag)
	}
}

func TestSearchMaxRateResolves(t *testing.T) {
	const capacity = 7300.0
	var tried []float64
	got := searchMaxRate(1000, 1<<17, 0.05, func(rate float64) bool {
		tried = append(tried, rate)
		return rate <= capacity
	})
	if got > capacity || got < capacity/1.05 {
		t.Errorf("searchMaxRate = %.1f, want within 5%% below %.0f (tried %.0f)", got, capacity, tried)
	}
	// Starting above capacity halves down before bisecting.
	if got := searchMaxRate(50000, 1<<17, 0.05, func(rate float64) bool { return rate <= capacity }); got > capacity || got < capacity/1.05 {
		t.Errorf("from above: searchMaxRate = %.1f", got)
	}
	if got := searchMaxRate(1000, 1<<17, 0.05, func(float64) bool { return false }); got != 0 {
		t.Errorf("nothing passes: searchMaxRate = %.1f, want 0", got)
	}
}
