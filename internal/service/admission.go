// Admission control for the serving path. An overloaded server that
// queues unboundedly collapses: every request eventually times out, so
// goodput drops to zero exactly when demand peaks. The Admission
// limiter instead bounds the work the server accepts — a fixed number
// of in-flight requests plus a bounded, deadline-aware wait queue —
// and sheds the rest immediately with a retry hint. Accepted requests
// keep a bounded p99; excess load degrades to fast rejections.

package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrShed reports that admission control rejected a request: every
// in-flight slot was busy and the request could not (or chose not to)
// wait any longer. HTTP layers should map it to 429 + Retry-After.
var ErrShed = errors.New("service: overloaded, request shed")

// AdmissionConfig sizes the limiter.
type AdmissionConfig struct {
	// MaxInFlight bounds concurrently admitted requests. <= 0 disables
	// admission control entirely (NewAdmission returns nil).
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; arrivals beyond it
	// are shed immediately (0: no queue, shed as soon as slots fill).
	MaxQueue int
	// QueueWait bounds how long one request may wait for a slot before
	// being shed (default 1s). The wait is additionally bounded by the
	// request's own context deadline, whichever expires first.
	QueueWait time.Duration
}

// Admission is a concurrency limiter with a bounded deadline-aware
// wait queue. The zero value is unusable; a nil *Admission admits
// everything (all methods are nil-safe), so callers can wire it
// unconditionally and let configuration decide.
type Admission struct {
	cfg   AdmissionConfig
	slots chan struct{}

	inflight atomic.Int64
	queued   atomic.Int64

	accepted      atomic.Uint64
	shedQueueFull atomic.Uint64
	shedTimeout   atomic.Uint64
	shedCancelled atomic.Uint64
}

// NewAdmission builds a limiter, or nil (admit everything) when
// cfg.MaxInFlight <= 0.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = time.Second
	}
	return &Admission{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
}

// Acquire admits the request or sheds it. On admission it returns a
// release function that must be called exactly once when the request
// finishes. On shed it returns an error wrapping ErrShed. A request
// waits for a slot at most QueueWait, and never past its own context
// deadline — a waiter whose deadline would expire in the queue is
// doing no one any good holding a queue position.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	select {
	case a.slots <- struct{}{}:
		return a.admit(), nil
	default:
	}

	// Slow path: all slots busy. Take a queue position if one is free.
	for {
		q := a.queued.Load()
		if q >= int64(a.cfg.MaxQueue) {
			a.shedQueueFull.Add(1)
			return nil, fmt.Errorf("%w (queue full at %d)", ErrShed, a.cfg.MaxQueue)
		}
		if a.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	defer a.queued.Add(-1)

	timer := time.NewTimer(a.cfg.QueueWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.admit(), nil
	case <-timer.C:
		a.shedTimeout.Add(1)
		return nil, fmt.Errorf("%w (queued longer than %s)", ErrShed, a.cfg.QueueWait)
	case <-ctx.Done():
		a.shedCancelled.Add(1)
		return nil, fmt.Errorf("%w (%v while queued)", ErrShed, ctx.Err())
	}
}

func (a *Admission) admit() func() {
	a.inflight.Add(1)
	a.accepted.Add(1)
	var released atomic.Bool
	return func() {
		if released.CompareAndSwap(false, true) {
			a.inflight.Add(-1)
			<-a.slots
		}
	}
}

// RetryAfter suggests how long a shed client should back off: one
// queue-wait period, rounded up to whole seconds (the granularity of
// the Retry-After header), at least 1s.
func (a *Admission) RetryAfter() time.Duration {
	if a == nil {
		return time.Second
	}
	d := a.cfg.QueueWait
	secs := (d + time.Second - 1) / time.Second
	if secs < 1 {
		secs = 1
	}
	return secs * time.Second
}

// AdmissionStats is a point-in-time view of the limiter counters.
type AdmissionStats struct {
	// Enabled reports whether a limiter is configured at all.
	Enabled     bool
	MaxInFlight int
	MaxQueue    int
	InFlight    int64
	Queued      int64
	Accepted    uint64
	// Shed counters by reason; Shed is their sum.
	Shed          uint64
	ShedQueueFull uint64
	ShedTimeout   uint64
	ShedCancelled uint64
}

// Stats snapshots the limiter (zero-valued for a nil limiter).
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	st := AdmissionStats{
		Enabled:       true,
		MaxInFlight:   a.cfg.MaxInFlight,
		MaxQueue:      a.cfg.MaxQueue,
		InFlight:      a.inflight.Load(),
		Queued:        a.queued.Load(),
		Accepted:      a.accepted.Load(),
		ShedQueueFull: a.shedQueueFull.Load(),
		ShedTimeout:   a.shedTimeout.Load(),
		ShedCancelled: a.shedCancelled.Load(),
	}
	st.Shed = st.ShedQueueFull + st.ShedTimeout + st.ShedCancelled
	return st
}

// WriteMetrics writes the apiserved_admission_* families (enabled 0 and
// zeros for a nil limiter).
func (a *Admission) WriteMetrics(w *obs.Writer) {
	st := a.Stats()
	obs.Gauge(w, "apiserved_admission_enabled", "Whether admission control is configured.", st.Enabled)
	obs.Gauge(w, "apiserved_admission_inflight", "Requests currently admitted.", st.InFlight)
	obs.Gauge(w, "apiserved_admission_queue_depth", "Requests waiting for an in-flight slot.", st.Queued)
	obs.Gauge(w, "apiserved_admission_inflight_limit", "Limit on requests admitted at once.", st.MaxInFlight)
	obs.Gauge(w, "apiserved_admission_queue_limit", "Limit on requests waiting for a slot.", st.MaxQueue)
	obs.Counter(w, "apiserved_admission_accepted_total", "Requests admitted past the limiter.", st.Accepted)
	w.Family("apiserved_admission_shed_total", obs.TypeCounter, "Requests rejected with 429, by reason.")
	obs.Sample(w, st.ShedQueueFull, "reason", "queue_full")
	obs.Sample(w, st.ShedTimeout, "reason", "timeout")
	obs.Sample(w, st.ShedCancelled, "reason", "cancelled")
}
