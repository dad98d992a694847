package atomicfile_test

import (
	"context"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/anacache"
	"repro/internal/atomicfile"
	"repro/internal/corpus"
	"repro/internal/evolution"
	"repro/internal/footprint"
	"repro/internal/jobs"
)

// TestStepOrder records the hook's steps while every owner writes once:
// each durable write must sync the file before its rename and the
// directory after it, and anacache records must run no sync step.
func TestStepOrder(t *testing.T) {
	var mu sync.Mutex
	writes := map[string][][]string{} // destination -> steps of each write
	atomicfile.Hook = func(step, path string) {
		mu.Lock()
		defer mu.Unlock()
		w := writes[path]
		if step == "create" {
			w = append(w, nil)
		}
		w[len(w)-1] = append(w[len(w)-1], step)
		writes[path] = w
	}
	t.Cleanup(func() { atomicfile.Hook = nil })

	dir := t.TempDir()
	// Spool: the queued, running and done records and the result.
	m, _ := startSpool(t, filepath.Join(dir, "spool"), func() {})
	if _, _, err := m.Submit("work", jobParams, jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	m.Wait(context.Background(), jobID(t), time.Minute)
	m.Close()
	// Snapshot directory: two generation files, two commits and a
	// rollback's commit.
	a, b := snapStudies(t)
	_, mgr := snapManager(t, dir)
	install(t, mgr, a, 1)
	install(t, mgr, b, 2)
	if _, err := mgr.Rollback(); err != nil {
		t.Fatal(err)
	}
	// A series: its gen-*.snap files through the facade and trends.json.
	series := corpus.SeriesConfig{Base: corpus.Config{Packages: 10, Installations: 100000, Seed: 3}, Generations: 2}
	if _, err := evolution.Build(evolution.Config{Series: series, Dir: filepath.Join(dir, "series")}); err != nil {
		t.Fatal(err)
	}
	// Anacache: a summary and a verdict record.
	cache, err := anacache.Open(filepath.Join(dir, "cache"), footprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := anacache.Key([]byte("binary"))
	if err := cache.Put([]byte("binary"), &footprint.Summary{Path: "/bin/x"}); err != nil {
		t.Fatal(err)
	}
	if err := cache.PutVerdicts(key, "tag", map[string]string{"read": "required"}); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	for path, ws := range writes {
		kind, want := "durable", durableSteps
		if strings.HasPrefix(path, filepath.Join(dir, "cache")+string(filepath.Separator)) {
			kind, want = "anacache", atomicSteps
		}
		for _, steps := range ws {
			counts[kind]++
			if !slices.Equal(steps, want) {
				t.Errorf("write of %s ran %v, want %v", path, steps, want)
			}
		}
	}
	// 4 spool writes, 2 generation files and 3 commits, 2 series
	// snapshots and trends.json; 2 anacache records and the series'
	// uncached build writes none.
	if counts["durable"] != 12 || counts["anacache"] != 2 {
		t.Errorf("recorded %v writes, want 12 durable and 2 anacache", counts)
	}
}
