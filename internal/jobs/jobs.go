// Package jobs is the durable asynchronous compute tier behind the
// serving path. The serving layer holds its accepted-p99 SLO only
// because admission control sheds everything heavy; this package is
// where the heavy work goes instead of dying: whole-corpus recomputes,
// large upload analyses, N-way diffs become typed jobs in a bounded
// priority queue, executed by a shared worker pool, with results kept
// in a TTL'd store keyed by a fingerprint of the canonicalized request
// — so identical submissions dedupe to one running job and one stored
// result.
//
// Durability: every job record and every result is a JSON file in a
// spool directory written by atomicfile.WriteDurable, so a reader races
// a writer onto the old record or the new one, never a torn one, and a
// record whose write succeeded is on disk before Submit answers. A
// failed write is counted (Stats.SpoolWriteErrors) and logged, and the
// job runs on from memory. A restart rescans the spool:
// queued and interrupted-while-running jobs are re-enqueued under their
// original IDs, finished results keep serving until their TTL expires,
// and unreadable records are counted, logged and skipped.
//
// State machine: queued → running → done | failed | dead. A transient
// executor error sends the job back to queued after a jittered
// exponential backoff until its attempt budget is spent, at which
// point it is dead — the dead-letter list, inspectable over HTTP. An
// error wrapped with Permanent skips retries and goes straight to
// failed (bad parameters will not get better by retrying).
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// State is one node of the per-job state machine.
type State string

// Job states. Queued and Running are live; Done, Failed and Dead are
// terminal (Failed: permanent error, no retry; Dead: retries
// exhausted — the dead-letter state).
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	StateDead    State = "dead"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateDead
}

// valid reports whether s is a known state (used when filtering).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateDead:
		return true
	}
	return false
}

// ErrPermanent marks an executor error that retrying cannot fix; wrap
// with Permanent. The job goes to StateFailed on the first occurrence.
var ErrPermanent = errors.New("jobs: permanent failure")

// Permanent wraps err so the manager fails the job without retries.
func Permanent(err error) error {
	return fmt.Errorf("%w: %w", ErrPermanent, err)
}

// Sentinel errors mapped to HTTP statuses by the API layers.
var (
	// ErrUnknownType reports a submission for an unregistered job type.
	ErrUnknownType = errors.New("jobs: unknown job type")
	// ErrUnknownJob reports a lookup of an ID the manager has no record of.
	ErrUnknownJob = errors.New("jobs: unknown job")
	// ErrQueueFull reports that the queued-job bound was hit; the
	// submitter should back off and retry — the job tier's own 429.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrNotDone reports a result request for a job that has not
	// finished successfully.
	ErrNotDone = errors.New("jobs: result not available")
	// ErrClosed reports an operation on a closed manager.
	ErrClosed = errors.New("jobs: manager closed")
)

// Executor runs one job type. Implementations must be safe for
// concurrent use; Execute observes ctx for cancellation (manager
// shutdown and per-job timeouts).
type Executor interface {
	// Type is the job type name routed on, e.g. "analyze-upload".
	Type() string
	// Execute runs the job and returns a JSON-serializable result.
	Execute(ctx context.Context, params json.RawMessage) (any, error)
}

// Job is one job record — the spool file and the wire shape. Values
// returned by the manager are copies; mutating them has no effect.
type Job struct {
	// ID is derived from the fingerprint, so identical submissions —
	// and resubmissions across restarts — share one ID.
	ID   string `json:"id"`
	Type string `json:"type"`
	// Fingerprint is the hex SHA-256 of the type plus canonicalized
	// params; the dedupe and result-store key.
	Fingerprint string          `json:"fingerprint"`
	Params      json.RawMessage `json:"params"`
	State       State           `json:"state"`
	// Priority orders the queue (higher first; FIFO within a priority).
	Priority int `json:"priority"`
	// Attempts counts started executions; MaxAttempts bounds them.
	Attempts    int `json:"attempts"`
	MaxAttempts int `json:"max_attempts"`
	// Error is the last execution error (terminal states keep it).
	Error string `json:"error,omitempty"`
	// RequestID traces the job back to the HTTP request that submitted
	// it (the X-Request-ID satellite).
	RequestID  string    `json:"request_id,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
	// NotBefore delays a retry until its backoff has elapsed.
	NotBefore time.Time `json:"not_before,omitempty"`
	// DurationMs is the last execution's wall time.
	DurationMs float64 `json:"duration_ms,omitempty"`

	// seq breaks priority ties FIFO; process-local, not persisted.
	seq uint64
}

// clone returns a defensive copy for callers outside the lock.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// Config sizes a Manager.
type Config struct {
	// SpoolDir persists job records and results; empty runs in memory
	// only (no restart resume).
	SpoolDir string
	// Workers sizes the manager-owned pool when Pool is nil (default 2).
	Workers int
	// Pool, when non-nil, is a shared execution pool — the same slots
	// that bound fleet shard analysis in cmd/apiworker, so one budget
	// governs both kinds of compute.
	Pool *Pool
	// MaxQueue bounds jobs in StateQueued (default 256); beyond it
	// Submit returns ErrQueueFull.
	MaxQueue int
	// MaxAttempts bounds executions per job (default 3).
	MaxAttempts int
	// RetryBase and RetryMax shape the jittered exponential backoff
	// between attempts (defaults 500ms and 30s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// JobTimeout bounds one execution (default 5m).
	JobTimeout time.Duration
	// ResultTTL expires terminal job records and their results
	// (default 1h); the janitor sweeps them from memory and spool.
	ResultTTL time.Duration
	// Logf receives progress lines; nil disables logging.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 500 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 30 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = time.Hour
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// SubmitOptions annotate one submission.
type SubmitOptions struct {
	// Priority orders the queue (higher first; 0 is normal).
	Priority int
	// RequestID is stamped into the job record for tracing.
	RequestID string
}

// Manager owns the queue, the executor registry, the result store and
// the spool. Construct with New, Register executors, then Start.
type Manager struct {
	cfg   Config
	pool  *Pool
	spool *spool // nil without SpoolDir

	mu      sync.Mutex
	reg     map[string]Executor
	jobs    map[string]*Job // by ID, every known job
	results map[string][]byte
	queue   *pqueue
	waiters map[string][]chan struct{}
	timers  map[string]*time.Timer // pending retry re-enqueues
	seq     uint64
	started bool

	// queueWake signals the dispatcher that the queue became non-empty.
	queueWake chan struct{}
	ctx       context.Context
	cancel    context.CancelFunc
	done      sync.WaitGroup

	stats statsCounters
	rng   *rand.Rand // backoff jitter, guarded by mu
}

// New builds an idle manager; call Register for each executor, then
// Start to scan the spool and begin executing.
func New(cfg Config) *Manager {
	cfg.fill()
	pool := cfg.Pool
	if pool == nil {
		pool = NewPool(cfg.Workers)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:       cfg,
		pool:      pool,
		reg:       make(map[string]Executor),
		jobs:      make(map[string]*Job),
		results:   make(map[string][]byte),
		queue:     newPQueue(),
		waiters:   make(map[string][]chan struct{}),
		timers:    make(map[string]*time.Timer),
		queueWake: make(chan struct{}, 1),
		ctx:       ctx,
		cancel:    cancel,
		rng:       rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Register adds an executor; duplicate types are an error. Must be
// called before Start so spooled jobs of this type can resume.
func (m *Manager) Register(ex Executor) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("jobs: Register after Start")
	}
	typ := ex.Type()
	if typ == "" {
		return errors.New("jobs: executor with empty type")
	}
	if _, dup := m.reg[typ]; dup {
		return fmt.Errorf("jobs: duplicate executor %q", typ)
	}
	m.reg[typ] = ex
	return nil
}

// Types lists the registered job types, sorted.
func (m *Manager) Types() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.reg))
	for typ := range m.reg {
		out = append(out, typ)
	}
	sortStrings(out)
	return out
}

// Start scans the spool (resuming queued and interrupted jobs, loading
// finished records), then launches the dispatcher and the TTL janitor.
func (m *Manager) Start() error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return errors.New("jobs: already started")
	}
	m.started = true
	m.mu.Unlock()

	if m.cfg.SpoolDir != "" {
		sp, err := openSpool(m.cfg.SpoolDir)
		if err != nil {
			return err
		}
		m.spool = sp
		if err := m.recover(); err != nil {
			return err
		}
	}
	m.done.Add(2)
	go m.dispatch()
	go m.janitor()
	return nil
}

// Close stops dispatching and cancels running executions. In-flight
// jobs interrupted by Close revert to queued (the attempt is not
// charged), so a spooled manager resumes them on the next Start.
func (m *Manager) Close() {
	m.cancel()
	m.mu.Lock()
	for id, t := range m.timers {
		t.Stop()
		delete(m.timers, id)
	}
	m.mu.Unlock()
	m.wakeDispatcher()
	m.done.Wait()
}

// recover rebuilds in-memory state from the spool: live jobs re-enter
// the queue under their original IDs, terminal ones serve until TTL.
// A record that would need to run but whose type has no executor here
// stays on disk, unadopted, for a process that runs that type.
func (m *Manager) recover() error {
	records, skipped, err := m.spool.loadJobs()
	if err != nil {
		return err
	}
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, name := range skipped {
		m.cfg.Logf("jobs: spool record %s is unreadable; skipped", name)
	}
	m.stats.skipped += uint64(len(skipped))
	for _, j := range records {
		switch {
		case j.State.Terminal():
			if now.Sub(j.FinishedAt) > m.cfg.ResultTTL {
				m.spool.remove(j.ID)
				m.stats.expired++
				continue
			}
			if j.State == StateDone && !m.spool.hasResult(j.ID) {
				// A done record without its result cannot serve; run it
				// again rather than 500 every result request.
				if !m.runnableLocked(j) {
					continue
				}
				j.State = StateQueued
				j.Error = ""
				m.adoptLocked(j, now)
				continue
			}
			m.jobs[j.ID] = j
		case j.State == StateRunning, j.State == StateQueued:
			if !m.runnableLocked(j) {
				continue
			}
			// Running means a previous process died mid-execution; the
			// interruption is not the job's fault, so the attempt that
			// was charged at start is refunded.
			if j.State == StateRunning && j.Attempts > 0 {
				j.Attempts--
			}
			j.State = StateQueued
			m.adoptLocked(j, now)
		}
	}
	if n := len(m.jobs); n > 0 {
		m.cfg.Logf("jobs: spool recovery: %d records, %d resumed", n, m.stats.resumed)
	}
	return nil
}

// runnableLocked reports whether a recovered record's type has an
// executor in this process, logging the record it must leave alone
// (m.mu held). Processes with different registries can share a spool,
// and a type can be renamed across an upgrade.
func (m *Manager) runnableLocked(j *Job) bool {
	if m.reg[j.Type] != nil {
		return true
	}
	m.cfg.Logf("jobs: spool record %s has unregistered type %q; left on disk", j.ID, j.Type)
	return false
}

// spoolWrote counts and logs a failed spool write (m.mu held). The
// failure is deliberately non-fatal to the job: the in-memory state
// machine stays authoritative, and only durability degrades.
func (m *Manager) spoolWrote(err error) {
	if err != nil {
		m.stats.spoolWriteErrors++
		m.cfg.Logf("jobs: spool write failed: %v", err)
	}
}

// adoptLocked re-admits a recovered queued job (m.mu held).
func (m *Manager) adoptLocked(j *Job, now time.Time) {
	m.seq++
	j.seq = m.seq
	m.jobs[j.ID] = j
	m.stats.resumed++
	m.spoolWrote(m.spool.putJob(j))
	if j.NotBefore.After(now) {
		m.scheduleRetryLocked(j.ID, j.NotBefore.Sub(now))
		return
	}
	m.queue.push(j)
	m.wakeDispatcher()
}

// Submit enqueues (or dedupes) one job. The boolean reports a dedupe
// hit: an identical submission was already queued, running, or done
// with an unexpired result. Failed and dead jobs are retried from
// scratch by a new identical submission — under the same ID, since the
// ID is the fingerprint.
func (m *Manager) Submit(typ string, params json.RawMessage, opt SubmitOptions) (*Job, bool, error) {
	if m.ctx.Err() != nil {
		return nil, false, ErrClosed
	}
	canon, err := Canonicalize(params)
	if err != nil {
		return nil, false, fmt.Errorf("jobs: bad params: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.reg[typ]; !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrUnknownType, typ)
	}
	fp := Fingerprint(typ, canon)
	id := IDFor(fp)
	if j, ok := m.jobs[id]; ok {
		switch j.State {
		case StateQueued, StateRunning, StateDone:
			m.stats.deduped++
			return j.clone(), true, nil
		}
		// Failed or dead: fall through and restart under the same ID.
		if t := m.timers[id]; t != nil {
			t.Stop()
			delete(m.timers, id)
		}
	}
	if m.queue.len() >= m.cfg.MaxQueue {
		m.stats.rejected++
		return nil, false, fmt.Errorf("%w (at %d)", ErrQueueFull, m.cfg.MaxQueue)
	}
	m.seq++
	j := &Job{
		ID:          id,
		Type:        typ,
		Fingerprint: fp,
		Params:      canon,
		State:       StateQueued,
		Priority:    opt.Priority,
		MaxAttempts: m.cfg.MaxAttempts,
		RequestID:   opt.RequestID,
		CreatedAt:   time.Now(),
		seq:         m.seq,
	}
	m.jobs[id] = j
	delete(m.results, id)
	m.stats.submitted++
	m.spoolWrote(m.spool.putJob(j))
	m.queue.push(j)
	m.wakeDispatcher()
	return j.clone(), false, nil
}

// Get returns a copy of the job record.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// Wait blocks until the job reaches a terminal state, ctx is done, or
// d elapses (d <= 0 waits only on ctx), and returns the latest record
// either way — the long-poll primitive behind ?wait=30s.
func (m *Manager) Wait(ctx context.Context, id string, d time.Duration) (*Job, error) {
	var timeout <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	for {
		m.mu.Lock()
		j, ok := m.jobs[id]
		if !ok {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
		}
		if j.State.Terminal() {
			defer m.mu.Unlock()
			return j.clone(), nil
		}
		ch := make(chan struct{})
		m.waiters[id] = append(m.waiters[id], ch)
		snapshot := j.clone()
		m.mu.Unlock()
		select {
		case <-ch:
			// Terminal transition: loop re-reads the final record.
		case <-ctx.Done():
			return snapshot, nil
		case <-timeout:
			return snapshot, nil
		case <-m.ctx.Done():
			return snapshot, nil
		}
	}
}

// Result returns the stored result of a done job. ErrUnknownJob for
// unknown IDs; ErrNotDone (with the job record) otherwise.
func (m *Manager) Result(id string) (json.RawMessage, *Job, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	jc := j.clone()
	raw, inMem := m.results[id]
	m.mu.Unlock()
	if jc.State != StateDone {
		return nil, jc, fmt.Errorf("%w: job is %s", ErrNotDone, jc.State)
	}
	if inMem {
		return raw, jc, nil
	}
	raw, err := m.spool.getResult(id)
	if err != nil {
		return nil, jc, fmt.Errorf("jobs: reading result %s: %w", id, err)
	}
	m.mu.Lock()
	m.results[id] = raw
	m.mu.Unlock()
	return raw, jc, nil
}

// List returns up to limit job records (limit <= 0: 100), newest
// first, optionally filtered by state and/or type. An invalid state
// filter is an error so HTTP callers can 400 on typos.
func (m *Manager) List(state State, typ string, limit int) ([]*Job, error) {
	if state != "" && !state.valid() {
		return nil, fmt.Errorf("jobs: unknown state %q", state)
	}
	if limit <= 0 {
		limit = 100
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, min(limit, len(m.jobs)))
	for _, j := range m.jobs {
		if state != "" && j.State != state {
			continue
		}
		if typ != "" && j.Type != typ {
			continue
		}
		out = append(out, j.clone())
	}
	sortJobs(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

func (m *Manager) wakeDispatcher() {
	select {
	case m.queueWake <- struct{}{}:
	default:
	}
}

// dispatch pulls ready jobs off the queue and hands each to a pool
// slot. The queue holds the backlog; the pool holds the concurrency.
func (m *Manager) dispatch() {
	defer m.done.Done()
	for {
		// Take the slot before the job: a job popped first would wait
		// for the slot outside the queue, where a higher-priority job
		// submitted meanwhile could not overtake it.
		release, err := m.pool.Acquire(m.ctx)
		if err != nil {
			return // shutting down
		}
		m.mu.Lock()
		j := m.queue.pop()
		m.mu.Unlock()
		if j == nil {
			release()
			select {
			case <-m.queueWake:
				continue
			case <-m.ctx.Done():
				return
			}
		}
		// Close waits for executions too: an interrupted job's refund
		// must be on disk before Close returns.
		m.done.Add(1)
		go func(id string) {
			defer m.done.Done()
			defer release()
			m.run(id)
		}(j.ID)
	}
}

// run executes one job through its registered executor and applies the
// state machine to the outcome.
func (m *Manager) run(id string) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok || j.State != StateQueued {
		m.mu.Unlock()
		return
	}
	ex := m.reg[j.Type]
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = time.Now()
	j.NotBefore = time.Time{}
	m.spoolWrote(m.spool.putJob(j))
	params := j.Params
	m.mu.Unlock()

	ctx, cancel := context.WithTimeout(m.ctx, m.cfg.JobTimeout)
	v, err := ex.Execute(ctx, params)
	cancel()
	elapsed := time.Since(j.StartedAt)

	if err != nil && m.ctx.Err() != nil && errors.Is(err, context.Canceled) {
		// Manager shutdown, not a job failure: refund the attempt and
		// park the job queued so a restart (or spool recovery) resumes it.
		m.mu.Lock()
		j.State = StateQueued
		j.Attempts--
		m.spoolWrote(m.spool.putJob(j))
		m.mu.Unlock()
		return
	}

	var raw json.RawMessage
	if err == nil {
		raw, err = json.Marshal(v)
		if err != nil {
			err = Permanent(fmt.Errorf("encoding result: %w", err))
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	j.DurationMs = float64(elapsed) / float64(time.Millisecond)
	switch {
	case err == nil:
		j.State = StateDone
		j.Error = ""
		j.FinishedAt = time.Now()
		m.results[id] = raw
		m.spoolWrote(m.spool.putResult(id, raw))
		m.stats.completed++
	case errors.Is(err, ErrPermanent):
		j.State = StateFailed
		j.Error = err.Error()
		j.FinishedAt = time.Now()
		m.stats.failures++
	case j.Attempts >= j.MaxAttempts:
		j.State = StateDead
		j.Error = err.Error()
		j.FinishedAt = time.Now()
		m.stats.failures++
		m.cfg.Logf("jobs: %s (%s) dead after %d attempts: %v", id, j.Type, j.Attempts, err)
	default:
		backoff := m.backoffLocked(j.Attempts)
		j.State = StateQueued
		j.Error = err.Error()
		j.NotBefore = time.Now().Add(backoff)
		m.stats.retries++
		m.cfg.Logf("jobs: %s (%s) attempt %d/%d failed, retrying in %s: %v",
			id, j.Type, j.Attempts, j.MaxAttempts, backoff.Round(time.Millisecond), err)
		m.spoolWrote(m.spool.putJob(j))
		m.scheduleRetryLocked(id, backoff)
		return
	}
	m.stats.observe(j.Type, elapsed)
	m.spoolWrote(m.spool.putJob(j))
	m.notifyLocked(id)
}

// scheduleRetryLocked re-enqueues id after its backoff (m.mu held).
func (m *Manager) scheduleRetryLocked(id string, d time.Duration) {
	m.timers[id] = time.AfterFunc(d, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.timers, id)
		j, ok := m.jobs[id]
		if !ok || j.State != StateQueued {
			return
		}
		m.seq++
		j.seq = m.seq
		m.queue.push(j)
		m.wakeDispatcher()
	})
}

// backoffLocked returns the jittered exponential delay before the next
// attempt (m.mu held for the rng). A spooled record read back from disk
// can carry any attempt count, so counts below 1 take the base delay.
func (m *Manager) backoffLocked(attempt int) time.Duration {
	d := m.cfg.RetryBase << max(attempt-1, 0)
	if d > m.cfg.RetryMax || d <= 0 {
		d = m.cfg.RetryMax
	}
	// Jitter in [0.5, 1.5): desynchronizes retry herds.
	return time.Duration(float64(d) * (0.5 + m.rng.Float64()))
}

// notifyLocked wakes every Wait blocked on id (m.mu held).
func (m *Manager) notifyLocked(id string) {
	for _, ch := range m.waiters[id] {
		close(ch)
	}
	delete(m.waiters, id)
}

// janitor sweeps expired terminal records from memory and spool.
func (m *Manager) janitor() {
	defer m.done.Done()
	interval := m.cfg.ResultTTL / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.ctx.Done():
			return
		case <-ticker.C:
		}
		now := time.Now()
		m.mu.Lock()
		for id, j := range m.jobs {
			if j.State.Terminal() && now.Sub(j.FinishedAt) > m.cfg.ResultTTL {
				delete(m.jobs, id)
				delete(m.results, id)
				m.spool.remove(id)
				m.stats.expired++
			}
		}
		m.mu.Unlock()
	}
}
