package service

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro"
	"repro/internal/fleet"
)

// TestReloadThroughFleet reloads a corpus with a two-worker fleet wired
// into the service: the swapped-in snapshot must be indistinguishable
// from a local reload, and the reload must have gone through the
// fleet.
func TestReloadThroughFleet(t *testing.T) {
	dir := t.TempDir()
	small, err := repro.NewStudy(repro.Config{Packages: 60, Installations: 100000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.SaveCorpus(dir); err != nil {
		t.Fatal(err)
	}
	local, err := repro.LoadStudy(dir)
	if err != nil {
		t.Fatal(err)
	}

	w1 := httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{}))
	defer w1.Close()
	w2 := httptest.NewServer(fleet.NewWorker(fleet.WorkerConfig{}))
	defer w2.Close()
	coord := fleet.New(fleet.Config{
		Workers:      []string{w1.URL, w2.URL},
		RetryBackoff: 5 * time.Millisecond,
	})

	svc := New(local, dir, Config{Fleet: coord})
	gen, err := svc.Reload(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation = %d, want 2", gen)
	}

	snap := svc.Snapshot()
	if snap.Meta.Fingerprint != local.Fingerprint() {
		t.Errorf("fleet reload fingerprint %s != local %s",
			snap.Meta.Fingerprint, local.Fingerprint())
	}
	if got, want := snap.Study.ReportAll(), local.ReportAll(); got != want {
		t.Error("fleet-reloaded report differs from local study")
	}

	st := coord.Stats()
	if st.Dispatched == 0 || st.LocalFallbackShards != 0 {
		t.Errorf("fleet counters = %+v, want remote dispatches and no fallback", st)
	}
	if len(st.Workers) != 2 {
		t.Errorf("worker stats for %d workers, want 2", len(st.Workers))
	}
}
