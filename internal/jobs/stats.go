package jobs

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// DurationBucketsMs are the histogram bucket upper bounds, in
// milliseconds, for per-type job execution durations. Jobs live on a
// much longer scale than serving requests (minutes of compute is the
// point of the tier), so the list extends to five minutes.
var DurationBucketsMs = []float64{5, 25, 100, 500, 2500, 10000, 60000, 300000}

// statsCounters accumulates lifetime counters and per-type duration
// histograms; guarded by Manager.mu.
type statsCounters struct {
	submitted uint64 // new jobs admitted to the queue
	deduped   uint64 // submissions answered by an existing job
	rejected  uint64 // submissions refused with ErrQueueFull
	completed uint64 // executions that reached done
	failures  uint64 // executions that reached failed or dead
	retries   uint64 // transient failures re-queued with backoff
	resumed   uint64 // jobs re-admitted from the spool at Start
	expired   uint64 // terminal records swept by TTL
	skipped   uint64 // unreadable spool records passed over at Start
	// spoolWriteErrors counts job records and results that did not
	// reach the spool.
	spoolWriteErrors uint64

	durations map[string]*obs.Histogram // by job type, once one has run
}

func (s *statsCounters) observe(typ string, elapsed time.Duration) {
	if s.durations == nil {
		s.durations = make(map[string]*obs.Histogram)
	}
	h := s.durations[typ]
	if h == nil {
		h = obs.NewHistogram(time.Millisecond, DurationBucketsMs)
		s.durations[typ] = h
	}
	h.Observe(elapsed)
}

// Stats is a point-in-time snapshot of the manager: state gauges,
// queue and pool occupancy, lifetime counters.
type Stats struct {
	States     map[State]int
	QueueLen   int
	PoolActive int
	PoolSize   int

	Submitted uint64
	Deduped   uint64
	Rejected  uint64
	Completed uint64
	Failures  uint64
	Retries   uint64
	Resumed   uint64
	Expired   uint64
	// SpoolSkipped counts spool records recovery could not read, parse
	// or match to their file name.
	SpoolSkipped uint64
	// SpoolWriteErrors counts job records and results whose spool write
	// failed.
	SpoolWriteErrors uint64
}

// Stats returns a consistent snapshot of counters and gauges.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{
		States: map[State]int{
			StateQueued: 0, StateRunning: 0, StateDone: 0,
			StateFailed: 0, StateDead: 0,
		},
		QueueLen:   m.queue.len(),
		PoolActive: m.pool.Active(),
		PoolSize:   m.pool.Size(),
		Submitted:  m.stats.submitted,
		Deduped:    m.stats.deduped,
		Rejected:   m.stats.rejected,
		Completed:  m.stats.completed,
		Failures:   m.stats.failures,
		Retries:    m.stats.retries,
		Resumed:    m.stats.resumed,
		Expired:    m.stats.expired,

		SpoolSkipped:     m.stats.skipped,
		SpoolWriteErrors: m.stats.spoolWriteErrors,
	}
	for _, j := range m.jobs {
		st.States[j.State]++
	}
	return st
}

// WriteMetrics writes the apiserved_jobs_* families. A nil manager (no
// job tier) writes only apiserved_jobs_enabled 0.
func (m *Manager) WriteMetrics(w *obs.Writer) {
	obs.Gauge(w, "apiserved_jobs_enabled", "Whether the async job tier is configured.", m != nil)
	if m == nil {
		return
	}
	st := m.Stats()
	w.Family("apiserved_jobs_state", obs.TypeGauge, "Jobs currently known, by state.")
	for _, s := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateDead} {
		obs.Sample(w, st.States[s], "state", string(s))
	}
	obs.Gauge(w, "apiserved_jobs_queue_depth", "Jobs waiting for a pool slot.", st.QueueLen)
	obs.Gauge(w, "apiserved_jobs_pool_active", "Pool slots currently executing.", st.PoolActive)
	obs.Gauge(w, "apiserved_jobs_pool_size", "Pool slots in total.", st.PoolSize)
	obs.Counter(w, "apiserved_jobs_submitted_total", "New jobs admitted to the queue.", st.Submitted)
	obs.Counter(w, "apiserved_jobs_deduped_total", "Submissions absorbed by an existing job.", st.Deduped)
	obs.Counter(w, "apiserved_jobs_rejected_total", "Submissions refused because the queue was full.", st.Rejected)
	obs.Counter(w, "apiserved_jobs_completed_total", "Jobs finished successfully.", st.Completed)
	obs.Counter(w, "apiserved_jobs_failures_total", "Jobs that ended failed or dead.", st.Failures)
	obs.Counter(w, "apiserved_jobs_retries_total", "Transient failures re-queued with backoff.", st.Retries)
	obs.Counter(w, "apiserved_jobs_resumed_total", "Jobs re-admitted from the spool at startup.", st.Resumed)
	obs.Counter(w, "apiserved_jobs_expired_total", "Terminal records swept by the result TTL.", st.Expired)
	obs.Counter(w, "apiserved_jobs_spool_skipped_total", "Unreadable spool records skipped at startup.", st.SpoolSkipped)
	obs.Counter(w, "apiserved_jobs_spool_write_errors_total", "Job records and results whose spool write failed.", st.SpoolWriteErrors)
	m.mu.Lock()
	defer m.mu.Unlock()
	w.Family("apiserved_jobs_duration_ms", obs.TypeHistogram, "Job execution wall time, by type.")
	types := make([]string, 0, len(m.stats.durations))
	for typ := range m.stats.durations {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		w.Histogram(m.stats.durations[typ], "type", typ)
	}
}
