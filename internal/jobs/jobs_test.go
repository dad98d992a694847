package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// fnExec adapts a func to Executor for tests.
type fnExec struct {
	typ string
	fn  func(ctx context.Context, params json.RawMessage) (any, error)
}

func (e fnExec) Type() string { return e.typ }
func (e fnExec) Execute(ctx context.Context, p json.RawMessage) (any, error) {
	return e.fn(ctx, p)
}

// echoExec returns its params unchanged.
func echoExec(typ string) Executor {
	return fnExec{typ: typ, fn: func(_ context.Context, p json.RawMessage) (any, error) {
		return json.RawMessage(p), nil
	}}
}

func newTestManager(t *testing.T, cfg Config, execs ...Executor) *Manager {
	t.Helper()
	m := New(cfg)
	for _, ex := range execs {
		if err := m.Register(ex); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(m.Close)
	return m
}

func waitState(t *testing.T, m *Manager, id string, want State) *Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if ok && j.State == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, j)
	return nil
}

func TestCanonicalizeOrderAndWhitespace(t *testing.T) {
	a, err := Canonicalize(json.RawMessage(`{"b": 1, "a": {"y":2, "x":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Canonicalize(json.RawMessage("{\"a\":{\"x\":3,\"y\":2},\n\"b\":1}"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("canonical forms differ: %s vs %s", a, b)
	}
	if Fingerprint("t", a) != Fingerprint("t", b) {
		t.Fatal("fingerprints differ for equivalent params")
	}
	if Fingerprint("t", a) == Fingerprint("u", a) {
		t.Fatal("fingerprint ignores job type")
	}
}

func TestCanonicalizeEdgeCases(t *testing.T) {
	if c, err := Canonicalize(nil); err != nil || string(c) != "null" {
		t.Fatalf("empty params: got %q, %v", c, err)
	}
	if c, err := Canonicalize(json.RawMessage("  \n ")); err != nil || string(c) != "null" {
		t.Fatalf("blank params: got %q, %v", c, err)
	}
	if _, err := Canonicalize(json.RawMessage(`{"a":1} trailing`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := Canonicalize(json.RawMessage(`{broken`)); err == nil {
		t.Fatal("invalid JSON accepted")
	}
	// Large integers survive canonicalization without float mangling.
	c, err := Canonicalize(json.RawMessage(`{"n":9007199254740993}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(c) != `{"n":9007199254740993}` {
		t.Fatalf("integer precision lost: %s", c)
	}
}

func TestIDDeterministic(t *testing.T) {
	c, _ := Canonicalize(json.RawMessage(`{"a":1}`))
	id1 := IDFor(Fingerprint("t", c))
	id2 := IDFor(Fingerprint("t", c))
	if id1 != id2 {
		t.Fatalf("IDs differ: %s vs %s", id1, id2)
	}
	if len(id1) != len("j-")+16 {
		t.Fatalf("unexpected ID shape: %s", id1)
	}
}

func TestSubmitExecuteResult(t *testing.T) {
	m := newTestManager(t, Config{}, echoExec("echo"))
	j, deduped, err := m.Submit("echo", json.RawMessage(`{"v":42}`), SubmitOptions{RequestID: "req-1"})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if deduped {
		t.Fatal("first submission reported deduped")
	}
	if j.RequestID != "req-1" {
		t.Fatalf("request ID not stamped: %+v", j)
	}
	got, err := m.Wait(context.Background(), j.ID, 5*time.Second)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if got.State != StateDone {
		t.Fatalf("state = %s, want done (err %q)", got.State, got.Error)
	}
	if got.Attempts != 1 || got.ID != j.ID {
		t.Fatalf("unexpected record: %+v", got)
	}
	raw, _, err := m.Result(j.ID)
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	if string(raw) != `{"v":42}` {
		t.Fatalf("result = %s", raw)
	}
}

func TestSubmitUnknownType(t *testing.T) {
	m := newTestManager(t, Config{}, echoExec("echo"))
	if _, _, err := m.Submit("nope", nil, SubmitOptions{}); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v, want ErrUnknownType", err)
	}
}

func TestDedupeWhileLiveAndWhenDone(t *testing.T) {
	gate := make(chan struct{})
	var execs atomic.Int64
	ex := fnExec{typ: "slow", fn: func(ctx context.Context, p json.RawMessage) (any, error) {
		execs.Add(1)
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return "ok", nil
	}}
	m := newTestManager(t, Config{}, ex)

	j1, _, err := m.Submit("slow", json.RawMessage(`{"k": 1}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j1.ID, StateRunning)

	// Same logical params, different spelling: dedupe to the running job.
	j2, deduped, err := m.Submit("slow", json.RawMessage(` {"k":1} `), SubmitOptions{})
	if err != nil || !deduped || j2.ID != j1.ID {
		t.Fatalf("running dedupe: job %+v deduped=%v err=%v", j2, deduped, err)
	}

	close(gate)
	waitState(t, m, j1.ID, StateDone)

	// Done with live TTL: still deduped, result reused, no re-execution.
	j3, deduped, err := m.Submit("slow", json.RawMessage(`{"k":1}`), SubmitOptions{})
	if err != nil || !deduped || j3.ID != j1.ID || j3.State != StateDone {
		t.Fatalf("done dedupe: job %+v deduped=%v err=%v", j3, deduped, err)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("executed %d times, want 1", n)
	}

	// Different params: a different job.
	j4, deduped, err := m.Submit("slow", json.RawMessage(`{"k":2}`), SubmitOptions{})
	if err != nil || deduped || j4.ID == j1.ID {
		t.Fatalf("distinct params collided: %+v deduped=%v err=%v", j4, deduped, err)
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var calls atomic.Int64
	ex := fnExec{typ: "flaky", fn: func(_ context.Context, _ json.RawMessage) (any, error) {
		if calls.Add(1) < 3 {
			return nil, fmt.Errorf("transient %d", calls.Load())
		}
		return "finally", nil
	}}
	m := newTestManager(t, Config{MaxAttempts: 5, RetryBase: time.Millisecond, RetryMax: 5 * time.Millisecond}, ex)
	j, _, err := m.Submit("flaky", nil, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Wait(context.Background(), j.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Attempts != 3 {
		t.Fatalf("state=%s attempts=%d, want done/3 (err %q)", got.State, got.Attempts, got.Error)
	}
	st := m.Stats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

func TestRetriesExhaustedGoDead(t *testing.T) {
	ex := fnExec{typ: "doomed", fn: func(_ context.Context, _ json.RawMessage) (any, error) {
		return nil, errors.New("always broken")
	}}
	m := newTestManager(t, Config{MaxAttempts: 2, RetryBase: time.Millisecond, RetryMax: 2 * time.Millisecond}, ex)
	j, _, err := m.Submit("doomed", nil, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Wait(context.Background(), j.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDead || got.Attempts != 2 {
		t.Fatalf("state=%s attempts=%d, want dead/2", got.State, got.Attempts)
	}
	if got.Error == "" {
		t.Fatal("dead job lost its error")
	}
	if _, _, err := m.Result(j.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("Result err = %v, want ErrNotDone", err)
	}
	dead, err := m.List(StateDead, "", 0)
	if err != nil || len(dead) != 1 || dead[0].ID != j.ID {
		t.Fatalf("dead list = %+v, %v", dead, err)
	}

	// A fresh identical submission restarts the dead job under its ID.
	j2, deduped, err := m.Submit("doomed", nil, SubmitOptions{})
	if err != nil || deduped || j2.ID != j.ID || j2.State != StateQueued {
		t.Fatalf("dead restart: %+v deduped=%v err=%v", j2, deduped, err)
	}
}

func TestPermanentErrorSkipsRetries(t *testing.T) {
	var calls atomic.Int64
	ex := fnExec{typ: "bad", fn: func(_ context.Context, _ json.RawMessage) (any, error) {
		calls.Add(1)
		return nil, Permanent(errors.New("params make no sense"))
	}}
	m := newTestManager(t, Config{MaxAttempts: 5, RetryBase: time.Millisecond}, ex)
	j, _, _ := m.Submit("bad", nil, SubmitOptions{})
	got, err := m.Wait(context.Background(), j.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || calls.Load() != 1 {
		t.Fatalf("state=%s calls=%d, want failed/1", got.State, calls.Load())
	}
}

func TestQueueFull(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	ex := fnExec{typ: "slow", fn: func(ctx context.Context, _ json.RawMessage) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return "ok", nil
	}}
	m := newTestManager(t, Config{Workers: 1, MaxQueue: 1}, ex)
	j1, _, err := m.Submit("slow", json.RawMessage(`{"n":1}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j1.ID, StateRunning) // occupies the only worker
	if _, _, err := m.Submit("slow", json.RawMessage(`{"n":2}`), SubmitOptions{}); err != nil {
		t.Fatalf("second submit (fills queue): %v", err)
	}
	_, _, err = m.Submit("slow", json.RawMessage(`{"n":3}`), SubmitOptions{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

func TestPriorityOrdering(t *testing.T) {
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	ex := fnExec{typ: "p", fn: func(ctx context.Context, p json.RawMessage) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mu.Lock()
		order = append(order, string(p))
		mu.Unlock()
		return "ok", nil
	}}
	m := newTestManager(t, Config{Workers: 1}, ex)
	first, _, _ := m.Submit("p", json.RawMessage(`{"n":0}`), SubmitOptions{})
	waitState(t, m, first.ID, StateRunning) // pins the worker so the rest queue up
	low, _, _ := m.Submit("p", json.RawMessage(`{"n":1}`), SubmitOptions{Priority: 0})
	high, _, _ := m.Submit("p", json.RawMessage(`{"n":2}`), SubmitOptions{Priority: 10})
	close(gate)
	waitState(t, m, low.ID, StateDone)
	waitState(t, m, high.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != `{"n":2}` {
		t.Fatalf("execution order = %v, want high priority second", order)
	}
}

// TestLatePriorityOvertakes submits the high-priority job 20 ms after
// the low one, long enough for the dispatcher to reach the busy pool:
// the low job must still be queued there, not held aside waiting for
// the slot.
func TestLatePriorityOvertakes(t *testing.T) {
	gate := make(chan struct{})
	var order []string
	var mu sync.Mutex
	ex := fnExec{typ: "p", fn: func(ctx context.Context, p json.RawMessage) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mu.Lock()
		order = append(order, string(p))
		mu.Unlock()
		return "ok", nil
	}}
	m := newTestManager(t, Config{Workers: 1}, ex)
	first, _, _ := m.Submit("p", json.RawMessage(`{"n":0}`), SubmitOptions{})
	waitState(t, m, first.ID, StateRunning)
	low, _, _ := m.Submit("p", json.RawMessage(`{"n":1}`), SubmitOptions{Priority: 0})
	time.Sleep(20 * time.Millisecond)
	high, _, _ := m.Submit("p", json.RawMessage(`{"n":2}`), SubmitOptions{Priority: 10})
	close(gate)
	waitState(t, m, low.ID, StateDone)
	waitState(t, m, high.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[1] != `{"n":2}` {
		t.Fatalf("execution order = %v, want the late high-priority job second", order)
	}
}

func TestWaitLongPollAndTimeout(t *testing.T) {
	gate := make(chan struct{})
	ex := fnExec{typ: "slow", fn: func(ctx context.Context, _ json.RawMessage) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return "ok", nil
	}}
	m := newTestManager(t, Config{}, ex)
	j, _, _ := m.Submit("slow", nil, SubmitOptions{})

	// Short wait on a non-terminal job: returns the current snapshot.
	got, err := m.Wait(context.Background(), j.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got.State.Terminal() {
		t.Fatalf("job finished too early: %+v", got)
	}

	// A waiter blocked before completion is woken by the transition.
	done := make(chan *Job, 1)
	go func() {
		w, _ := m.Wait(context.Background(), j.ID, 5*time.Second)
		done <- w
	}()
	time.Sleep(10 * time.Millisecond)
	close(gate)
	select {
	case w := <-done:
		if w.State != StateDone {
			t.Fatalf("woken with state %s", w.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}

	if _, err := m.Wait(context.Background(), "j-doesnotexist00", 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
}

func TestListFilters(t *testing.T) {
	m := newTestManager(t, Config{}, echoExec("a"), echoExec("b"))
	ja, _, _ := m.Submit("a", json.RawMessage(`1`), SubmitOptions{})
	jb, _, _ := m.Submit("b", json.RawMessage(`2`), SubmitOptions{})
	waitState(t, m, ja.ID, StateDone)
	waitState(t, m, jb.ID, StateDone)

	all, err := m.List("", "", 0)
	if err != nil || len(all) != 2 {
		t.Fatalf("all = %+v, %v", all, err)
	}
	onlyA, err := m.List("", "a", 0)
	if err != nil || len(onlyA) != 1 || onlyA[0].Type != "a" {
		t.Fatalf("type filter = %+v, %v", onlyA, err)
	}
	none, err := m.List(StateDead, "", 0)
	if err != nil || len(none) != 0 {
		t.Fatalf("dead = %+v, %v", none, err)
	}
	if _, err := m.List(State("bogus"), "", 0); err == nil {
		t.Fatal("invalid state filter accepted")
	}
}

func TestSpoolRestartResumesQueuedJob(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	blocking := fnExec{typ: "work", fn: func(ctx context.Context, _ json.RawMessage) (any, error) {
		select {
		case <-gate:
			return "resumed-result", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}

	m1 := New(Config{SpoolDir: dir})
	if err := m1.Register(blocking); err != nil {
		t.Fatal(err)
	}
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	j, _, err := m1.Submit("work", json.RawMessage(`{"corpus":"big"}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m1, j.ID, StateRunning)
	// Graceful shutdown mid-execution: the attempt is refunded and the
	// job parked queued on disk.
	m1.Close()

	data, err := os.ReadFile(filepath.Join(dir, "jobs", j.ID+".json"))
	if err != nil {
		t.Fatalf("spool record missing after close: %v", err)
	}
	var spooled Job
	if err := json.Unmarshal(data, &spooled); err != nil {
		t.Fatal(err)
	}
	if spooled.State != StateQueued || spooled.Attempts != 0 {
		t.Fatalf("spooled record = %+v, want queued with attempt refunded", spooled)
	}

	// "Restart": a new manager over the same spool resumes the job
	// under the same ID and completes it.
	close(gate)
	m2 := newTestManager(t, Config{SpoolDir: dir}, blocking)
	got, err := m2.Wait(context.Background(), j.ID, 10*time.Second)
	if err != nil {
		t.Fatalf("resumed job unknown after restart: %v", err)
	}
	if got.State != StateDone || got.ID != j.ID {
		t.Fatalf("resumed job = %+v", got)
	}
	raw, _, err := m2.Result(j.ID)
	if err != nil || string(raw) != `"resumed-result"` {
		t.Fatalf("result after restart = %s, %v", raw, err)
	}
	if st := m2.Stats(); st.Resumed != 1 {
		t.Fatalf("resumed counter = %d, want 1", st.Resumed)
	}
}

func TestSpoolRecoversHardKilledRunningJob(t *testing.T) {
	// Simulate kill -9: a record left on disk in state running with an
	// attempt already charged. Recovery refunds the attempt and re-runs.
	dir := t.TempDir()
	canon, _ := Canonicalize(json.RawMessage(`{"x":1}`))
	fp := Fingerprint("work", canon)
	j := &Job{
		ID: IDFor(fp), Type: "work", Fingerprint: fp, Params: canon,
		State: StateRunning, Attempts: 1, MaxAttempts: 3,
		CreatedAt: time.Now(), StartedAt: time.Now(),
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	data, _ := json.Marshal(j)
	if err := os.WriteFile(filepath.Join(dir, "jobs", j.ID+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := newTestManager(t, Config{SpoolDir: dir}, echoExec("work"))
	got, err := m.Wait(context.Background(), j.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone || got.Attempts != 1 {
		t.Fatalf("recovered job = %+v, want done with attempts=1", got)
	}
}

func TestSpoolKeepsDoneResultAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	counting := fnExec{typ: "once", fn: func(_ context.Context, p json.RawMessage) (any, error) {
		execs.Add(1)
		return json.RawMessage(p), nil
	}}
	m1 := New(Config{SpoolDir: dir})
	m1.Register(counting)
	m1.Start()
	j, _, _ := m1.Submit("once", json.RawMessage(`{"q":7}`), SubmitOptions{})
	if _, err := m1.Wait(context.Background(), j.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2 := newTestManager(t, Config{SpoolDir: dir}, counting)
	raw, rec, err := m2.Result(j.ID)
	if err != nil || rec.State != StateDone || string(raw) != `{"q":7}` {
		t.Fatalf("result after restart = %s (%+v), %v", raw, rec, err)
	}
	// And a duplicate submission dedupes against the recovered record.
	j2, deduped, err := m2.Submit("once", json.RawMessage(`{"q": 7}`), SubmitOptions{})
	if err != nil || !deduped || j2.ID != j.ID {
		t.Fatalf("dedupe after restart: %+v deduped=%v err=%v", j2, deduped, err)
	}
	if execs.Load() != 1 {
		t.Fatalf("executed %d times, want 1", execs.Load())
	}
}

func TestSpoolExpiresStaleTerminalRecordsOnStart(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{SpoolDir: dir})
	m1.Register(echoExec("e"))
	m1.Start()
	j, _, _ := m1.Submit("e", json.RawMessage(`1`), SubmitOptions{})
	m1.Wait(context.Background(), j.ID, 10*time.Second)
	m1.Close()

	// Restart with a TTL the record has already exceeded.
	time.Sleep(5 * time.Millisecond)
	m2 := newTestManager(t, Config{SpoolDir: dir, ResultTTL: time.Nanosecond}, echoExec("e"))
	if _, ok := m2.Get(j.ID); ok {
		t.Fatal("expired record survived recovery")
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", j.ID+".json")); !os.IsNotExist(err) {
		t.Fatalf("expired spool file not removed: %v", err)
	}
}

func TestSpoolDoneWithoutResultReruns(t *testing.T) {
	dir := t.TempDir()
	m1 := New(Config{SpoolDir: dir})
	m1.Register(echoExec("e"))
	m1.Start()
	j, _, _ := m1.Submit("e", json.RawMessage(`{"v":1}`), SubmitOptions{})
	m1.Wait(context.Background(), j.ID, 10*time.Second)
	m1.Close()
	if err := os.Remove(filepath.Join(dir, "results", j.ID+".json")); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, Config{SpoolDir: dir}, echoExec("e"))
	got, err := m2.Wait(context.Background(), j.ID, 10*time.Second)
	if err != nil || got.State != StateDone {
		t.Fatalf("re-run after lost result: %+v, %v", got, err)
	}
	raw, _, err := m2.Result(j.ID)
	if err != nil || string(raw) != `{"v":1}` {
		t.Fatalf("result = %s, %v", raw, err)
	}
}

// TestSpoolCountsSkippedRecords plants an empty record (a rename that
// reached the disk before its data) and a truncated one: recovery skips
// both, counts them in Stats and on /metrics, logs each file name, and
// sweeps the temp files cut-short writes left in both directories.
func TestSpoolCountsSkippedRecords(t *testing.T) {
	dir := t.TempDir()
	writeSpoolRecord(t, dir, "j-00000000000000c1", nil)
	writeSpoolRecord(t, dir, "j-00000000000000c2", []byte(`{"id":"j-00000000000000c2","type":"wo`))
	temps := []string{writeSpoolRecord(t, dir, ".tmp-1", nil)}
	temps = append(temps, filepath.Join(dir, "results", ".tmp-2"))
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(temps[1], []byte(`{"ok"`), 0o600); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	m := newTestManager(t, Config{SpoolDir: dir, Logf: logf}, echoExec("work"))
	if st := m.Stats(); st.SpoolSkipped != 2 {
		t.Errorf("SpoolSkipped = %d, want 2", st.SpoolSkipped)
	}
	mu.Lock()
	var skipped []string
	for _, l := range logs {
		if strings.Contains(l, "skipped") {
			skipped = append(skipped, l)
		}
	}
	mu.Unlock()
	if len(skipped) != 2 || !strings.Contains(skipped[0], "j-00000000000000c1.json") ||
		!strings.Contains(skipped[1], "j-00000000000000c2.json") {
		t.Errorf("skip log lines = %q", skipped)
	}
	var w obs.Writer
	m.WriteMetrics(&w)
	if page := w.String(); !strings.Contains(page, "\napiserved_jobs_spool_skipped_total 2\n") {
		t.Errorf("skipped records not exported:\n%s", page)
	}
	for _, p := range temps {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("temp file %s survived Start: %v", p, err)
		}
	}
}

// TestSpoolWriteFailuresAreCounted puts a directory where a job's record
// goes: Submit still answers with the job, the failed write is counted
// in Stats and on /metrics and logged once, and the job still runs to
// done from memory.
func TestSpoolWriteFailuresAreCounted(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	gate := make(chan struct{})
	ex := fnExec{typ: "work", fn: func(ctx context.Context, p json.RawMessage) (any, error) {
		if string(p) == `{"n":0}` {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return json.RawMessage(p), nil
	}}
	m := newTestManager(t, Config{SpoolDir: dir, Workers: 1, Logf: logf}, ex)
	blocker, _, err := m.Submit("work", json.RawMessage(`{"n":0}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, blocker.ID, StateRunning) // the job below stays queued

	params := json.RawMessage(`{"n":1}`)
	canon, err := Canonicalize(params)
	if err != nil {
		t.Fatal(err)
	}
	id := IDFor(Fingerprint("work", canon))
	if err := os.Mkdir(filepath.Join(dir, "jobs", id+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	j, _, err := m.Submit("work", params, SubmitOptions{})
	if err != nil || j.ID != id {
		t.Fatalf("Submit = %+v, %v; want job %s despite the failed write", j, err, id)
	}
	if st := m.Stats(); st.SpoolWriteErrors != 1 {
		t.Errorf("SpoolWriteErrors = %d, want 1", st.SpoolWriteErrors)
	}
	var w obs.Writer
	m.WriteMetrics(&w)
	if page := w.String(); !strings.Contains(page, "\napiserved_jobs_spool_write_errors_total 1\n") {
		t.Errorf("spool write errors not exported:\n%s", page)
	}
	mu.Lock()
	var failed []string
	for _, l := range logs {
		if strings.Contains(l, "spool write failed") {
			failed = append(failed, l)
		}
	}
	mu.Unlock()
	if len(failed) != 1 || !strings.Contains(failed[0], id) {
		t.Errorf("spool write log lines = %q, want one naming %s", failed, id)
	}

	close(gate)
	waitState(t, m, id, StateDone)
	if raw, _, err := m.Result(id); err != nil || string(raw) != string(params) {
		t.Errorf("Result = %s, %v; want the job's result from memory", raw, err)
	}
}

// TestSpoolLeavesUnregisteredTypeOnDisk recovers a spool holding
// records of a type this process has no executor for (a process with a
// different registry shares the spool, or the type was renamed): the
// live records are neither adopted nor run, which would call a nil
// executor, and stay on disk byte for byte; a finished record of that
// type still serves its result.
func TestSpoolLeavesUnregisteredTypeOnDisk(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	live := map[string]*Job{
		"j-00000000000000a1": {State: StateQueued},
		"j-00000000000000a2": {State: StateRunning, Attempts: 1, StartedAt: now},
		"j-00000000000000a3": {State: StateDone, Attempts: 1, FinishedAt: now}, // no result on disk
	}
	raws := map[string][]byte{}
	for id, j := range live {
		j.ID, j.Type, j.Params, j.MaxAttempts, j.CreatedAt = id, "nope", json.RawMessage(`{}`), 3, now
		raw, err := json.Marshal(j)
		if err != nil {
			t.Fatal(err)
		}
		raws[id] = raw
		writeSpoolRecord(t, dir, id, raw)
	}
	done := &Job{ID: "j-00000000000000b1", Type: "nope", State: StateDone, Attempts: 1,
		MaxAttempts: 3, CreatedAt: now, FinishedAt: now}
	raw, _ := json.Marshal(done)
	writeSpoolRecord(t, dir, done.ID, raw)
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "results", done.ID+".json"), []byte(`{"ok":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	logf := func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	m := newTestManager(t, Config{SpoolDir: dir, Logf: logf}, echoExec("work"))
	// Give a wrongly adopted job time to reach the dispatcher.
	time.Sleep(50 * time.Millisecond)
	for id, want := range raws {
		if j, ok := m.Get(id); ok {
			t.Errorf("record %s of an unregistered type was adopted: %+v", id, j)
		}
		got, err := os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("record %s on disk = %s, %v; want it untouched", id, got, err)
		}
	}
	if res, rec, err := m.Result(done.ID); err != nil || string(res) != `{"ok":1}` || rec.State != StateDone {
		t.Errorf("finished record of an unregistered type: %s (%+v), %v", res, rec, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if n := strings.Count(strings.Join(logs, "\n"), `unregistered type "nope"`); n != len(raws) {
		t.Errorf("%d unregistered-type log lines, want %d: %q", n, len(raws), logs)
	}
	if st := m.Stats(); st.Resumed != 0 {
		t.Errorf("resumed = %d, want 0", st.Resumed)
	}
}

func TestPoolSharedBudget(t *testing.T) {
	p := NewPool(2)
	ctx := context.Background()
	r1, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p.Active() != 2 {
		t.Fatalf("active = %d, want 2", p.Active())
	}
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := p.Acquire(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("third acquire: %v, want deadline exceeded", err)
	}
	r1()
	r1() // idempotent
	if p.Active() != 1 {
		t.Fatalf("active after release = %d, want 1", p.Active())
	}
	r3, err := p.Acquire(ctx)
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	r3()
	r2()

	// A nil pool is unlimited.
	var nilPool *Pool
	rel, err := nilPool.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rel()
}

func TestManagerUsesSharedPool(t *testing.T) {
	pool := NewPool(1)
	gate := make(chan struct{})
	started := make(chan string, 4)
	ex := fnExec{typ: "shared", fn: func(ctx context.Context, p json.RawMessage) (any, error) {
		started <- string(p)
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return "ok", nil
	}}
	m := newTestManager(t, Config{Pool: pool, Workers: 8}, ex)

	// An outside consumer (standing in for a fleet shard) holds the
	// only slot; no job may start until it releases.
	release, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := m.Submit("shared", json.RawMessage(`1`), SubmitOptions{})
	select {
	case p := <-started:
		t.Fatalf("job %s started while pool was exhausted", p)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never started after slot freed")
	}
	close(gate)
	waitState(t, m, j.ID, StateDone)
}

func TestStatsSnapshot(t *testing.T) {
	m := newTestManager(t, Config{MaxAttempts: 1}, echoExec("ok"),
		fnExec{typ: "boom", fn: func(_ context.Context, _ json.RawMessage) (any, error) {
			return nil, errors.New("boom")
		}})
	j1, _, _ := m.Submit("ok", json.RawMessage(`1`), SubmitOptions{})
	j2, _, _ := m.Submit("boom", nil, SubmitOptions{})
	waitState(t, m, j1.ID, StateDone)
	waitState(t, m, j2.ID, StateDead)
	m.Submit("ok", json.RawMessage(`1`), SubmitOptions{}) // dedupe hit

	st := m.Stats()
	if st.Submitted != 2 || st.Deduped != 1 || st.Completed != 1 || st.Failures != 1 {
		t.Fatalf("counters = %+v", st)
	}
	if st.States[StateDone] != 1 || st.States[StateDead] != 1 {
		t.Fatalf("state gauges = %+v", st.States)
	}
	var w obs.Writer
	m.WriteMetrics(&w)
	page := w.String()
	if !strings.Contains(page, "\napiserved_jobs_duration_ms_count{type=\"ok\"} 1\n") {
		t.Fatalf("no ok-type duration count of 1:\n%s", page)
	}
	if n := strings.Count(page, "\napiserved_jobs_duration_ms_bucket{type=\"ok\",le="); n != len(DurationBucketsMs)+1 {
		t.Fatalf("%d ok-type duration buckets, want %d:\n%s", n, len(DurationBucketsMs)+1, page)
	}
}

// A record carries only the times that are set: a queued job has no
// started_at, finished_at or not_before, and a finished one has the
// first two. Both read back unchanged.
func TestRecordOmitsUnsetTimes(t *testing.T) {
	now := time.Date(2026, 10, 21, 9, 30, 0, 0, time.UTC)
	queued := Job{ID: "j-00000000000000b1", Type: "echo", State: StateQueued, CreatedAt: now}
	done := queued
	done.State, done.Attempts = StateDone, 1
	done.StartedAt, done.FinishedAt = now.Add(time.Second), now.Add(2*time.Second)
	for _, tc := range []struct {
		job          Job
		have, absent []string
	}{
		{queued, nil, []string{"started_at", "finished_at", "not_before"}},
		{done, []string{"started_at", "finished_at"}, []string{"not_before"}},
	} {
		raw, err := json.Marshal(&tc.job)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatal(err)
		}
		for _, k := range tc.have {
			if _, ok := fields[k]; !ok {
				t.Errorf("%s record %s lacks %s", tc.job.State, raw, k)
			}
		}
		for _, k := range tc.absent {
			if _, ok := fields[k]; ok {
				t.Errorf("%s record %s carries unset %s", tc.job.State, raw, k)
			}
		}
		var back Job
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if back.ID != tc.job.ID || back.State != tc.job.State || !back.CreatedAt.Equal(tc.job.CreatedAt) ||
			!back.StartedAt.Equal(tc.job.StartedAt) || !back.FinishedAt.Equal(tc.job.FinishedAt) || !back.NotBefore.IsZero() {
			t.Errorf("record %s read back as %+v", raw, back)
		}
	}
}
