package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/snapshot"
)

// ErrStaleGeneration reports a pushed snapshot whose generation does not
// advance the replica's current one. The push protocol is strictly
// monotonic so replicas converge no matter how pushes race or retry.
var ErrStaleGeneration = errors.New("service: snapshot generation not newer than current")

// ErrNoPrevious reports a rollback with no previous generation on disk.
var ErrNoPrevious = errors.New("service: no previous snapshot generation to roll back to")

// managedSnap identifies one on-disk snapshot generation.
type managedSnap struct {
	gen         uint64
	fingerprint string
	path        string
}

// SnapshotManager is a replica's admin surface for pushed snapshots: it
// validates pushed bytes, persists them under generation-numbered names
// in its directory, swaps them into the service atomically, keeps the
// previous generation for rollback, and unlinks anything older. Served
// studies are read into memory, so readers on old generations never
// touch the unlinked files.
type SnapshotManager struct {
	svc *Service
	dir string

	mu       sync.Mutex
	current  managedSnap
	previous managedSnap

	installs        uint64
	rollbacks       uint64
	rejectedStale   uint64
	rejectedCorrupt uint64
}

// SnapshotInfo describes an installed (or already-current) generation;
// it is echoed to the publisher so it can verify the replica took
// exactly the snapshot it sent.
type SnapshotInfo struct {
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
	Packages    int    `json:"packages"`
	Path        string `json:"path,omitempty"`
}

// SnapshotManagerStatus answers GET /v1/snapshot and feeds /metrics.
type SnapshotManagerStatus struct {
	Dir      string        `json:"dir"`
	Current  *SnapshotInfo `json:"current,omitempty"`
	Previous *SnapshotInfo `json:"previous,omitempty"`

	Installs        uint64 `json:"installs"`
	Rollbacks       uint64 `json:"rollbacks"`
	RejectedStale   uint64 `json:"rejected_stale"`
	RejectedCorrupt uint64 `json:"rejected_corrupt"`
}

// NewSnapshotManager creates the manager rooted at dir (created if
// missing).
func NewSnapshotManager(svc *Service, dir string) (*SnapshotManager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &SnapshotManager{svc: svc, dir: dir}, nil
}

func genPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("gen-%016d.snap", gen))
}

// Install validates pushed snapshot bytes, persists them, and swaps the
// restored study into the service at the file's generation. A push that
// exactly matches the current generation and fingerprint is an
// idempotent no-op (publisher retry); any other non-advancing push is
// rejected with ErrStaleGeneration; bytes failing validation are
// rejected with the snapshot package's typed error and never touch the
// served study.
func (m *SnapshotManager) Install(data []byte) (SnapshotInfo, error) {
	d, err := snapshot.Decode(data)
	if err != nil {
		m.mu.Lock()
		m.rejectedCorrupt++
		m.mu.Unlock()
		return SnapshotInfo{}, err
	}
	info := SnapshotInfo{
		Generation:  d.Generation,
		Fingerprint: d.Fingerprint,
		Packages:    len(d.Packages),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.current.path != "" {
		if d.Generation == m.current.gen && d.Fingerprint == m.current.fingerprint {
			info.Path = m.current.path
			return info, nil
		}
		if d.Generation <= m.current.gen {
			m.rejectedStale++
			return SnapshotInfo{}, fmt.Errorf("%w: pushed %d, serving %d",
				ErrStaleGeneration, d.Generation, m.current.gen)
		}
	}
	path := genPath(m.dir, d.Generation)
	if err := snapshot.WriteBytes(path, data); err != nil {
		return SnapshotInfo{}, err
	}
	if _, err := m.svc.LoadSnapshotFile(path); err != nil {
		os.Remove(path)
		return SnapshotInfo{}, err
	}
	if m.previous.path != "" && m.previous.path != path {
		os.Remove(m.previous.path)
	}
	m.previous = m.current
	m.current = managedSnap{gen: d.Generation, fingerprint: d.Fingerprint, path: path}
	m.installs++
	info.Path = path
	return info, nil
}

// Rollback re-serves the previous generation. The rolled-back-from
// generation stays on disk as the new "previous", so a second rollback
// undoes the first; the next Install must still advance past the
// *rolled-back-from* generation's predecessor only, i.e. any push newer
// than the now-current generation is accepted.
func (m *SnapshotManager) Rollback() (SnapshotInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.previous.path == "" {
		return SnapshotInfo{}, ErrNoPrevious
	}
	if _, err := m.svc.LoadSnapshotFile(m.previous.path); err != nil {
		return SnapshotInfo{}, err
	}
	m.current, m.previous = m.previous, m.current
	m.rollbacks++
	snap := m.svc.Snapshot()
	return SnapshotInfo{
		Generation:  m.current.gen,
		Fingerprint: m.current.fingerprint,
		Packages:    snap.Meta.Packages,
		Path:        m.current.path,
	}, nil
}

// OpenLatest adopts the newest valid snapshot already in the manager's
// directory (from a previous process life) and serves it; files that
// fail validation are skipped. Returns ErrNoPrevious when the directory
// holds no servable snapshot.
func (m *SnapshotManager) OpenLatest() (uint64, error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return 0, err
	}
	var paths []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".snap" {
			paths = append(paths, filepath.Join(m.dir, e.Name()))
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, path := range paths {
		gen, err := m.svc.LoadSnapshotFile(path)
		if err != nil {
			continue
		}
		snap := m.svc.Snapshot()
		m.current = managedSnap{gen: gen, fingerprint: snap.Meta.Fingerprint, path: path}
		m.previous = managedSnap{}
		return gen, nil
	}
	return 0, ErrNoPrevious
}

// Status reports the managed generations and counters.
func (m *SnapshotManager) Status() SnapshotManagerStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := SnapshotManagerStatus{
		Dir:             m.dir,
		Installs:        m.installs,
		Rollbacks:       m.rollbacks,
		RejectedStale:   m.rejectedStale,
		RejectedCorrupt: m.rejectedCorrupt,
	}
	if m.current.path != "" {
		st.Current = &SnapshotInfo{
			Generation:  m.current.gen,
			Fingerprint: m.current.fingerprint,
			Packages:    m.svc.Snapshot().Meta.Packages,
			Path:        m.current.path,
		}
	}
	if m.previous.path != "" {
		st.Previous = &SnapshotInfo{Generation: m.previous.gen, Fingerprint: m.previous.fingerprint, Path: m.previous.path}
	}
	return st
}

// WriteMetrics writes the push counters. A nil manager (no admin
// surface mounted) writes nothing.
func (m *SnapshotManager) WriteMetrics(w *obs.Writer) {
	if m == nil {
		return
	}
	st := m.Status()
	obs.Counter(w, "apiserved_snapshot_installs_total", "Snapshot pushes installed via /v1/snapshot.", st.Installs)
	obs.Counter(w, "apiserved_snapshot_rollbacks_total", "Rollbacks to the previous snapshot generation.", st.Rollbacks)
	obs.Counter(w, "apiserved_snapshot_rejected_stale_total", "Pushes rejected for not advancing the generation.", st.RejectedStale)
	obs.Counter(w, "apiserved_snapshot_rejected_corrupt_total", "Pushes rejected as invalid snapshot files.", st.RejectedCorrupt)
}
