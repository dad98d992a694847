package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicfile"
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
//
// The pointer file (currentFile) commits which generations are current
// and previous, so a restart serves what the last Install or Rollback
// chose. Every file is written with atomicfile.WriteDurable.
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

// currentFile names the pointer file: the current generation's file
// name on its first line, the previous one's (if any) on its second.
const currentFile = "current"

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
	if err := atomicfile.WriteDurable(path, data); err != nil {
		return SnapshotInfo{}, err
	}
	old := m.previous
	if err := m.serve(managedSnap{gen: d.Generation, fingerprint: d.Fingerprint, path: path}, m.current); err != nil {
		os.Remove(path)
		return SnapshotInfo{}, err
	}
	if old.path != "" && old.path != path {
		os.Remove(old.path)
	}
	m.installs++
	info.Path = path
	return info, nil
}

// Rollback re-serves the previous generation. The rolled-back-from
// generation stays on disk as the new "previous", so a second rollback
// undoes the first; the next Install must still advance past the
// *rolled-back-from* generation's predecessor only, i.e. any push newer
// than the now-current generation is accepted. The choice survives a
// restart.
func (m *SnapshotManager) Rollback() (SnapshotInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.previous.path == "" {
		return SnapshotInfo{}, ErrNoPrevious
	}
	if err := m.serve(m.previous, m.current); err != nil {
		return SnapshotInfo{}, err
	}
	m.rollbacks++
	snap := m.svc.Snapshot()
	return SnapshotInfo{
		Generation:  m.current.gen,
		Fingerprint: m.current.fingerprint,
		Packages:    snap.Meta.Packages,
		Path:        m.current.path,
	}, nil
}

// serve commits cur and prev to the pointer file, then swaps cur in
// (m.mu held). The pointer's rename is the commit point: a restart
// serves what it names. A failed swap puts the old pointer back, so
// disk and memory agree.
func (m *SnapshotManager) serve(cur, prev managedSnap) error {
	if err := m.writePointer(cur, prev); err != nil {
		return err
	}
	if _, err := m.svc.LoadSnapshotFile(cur.path); err != nil {
		// Best effort: if this fails too, the pointer names a file
		// Install removes, and OpenLatest falls back to the newest files.
		m.writePointer(m.current, m.previous)
		return err
	}
	m.current, m.previous = cur, prev
	return nil
}

func (m *SnapshotManager) writePointer(cur, prev managedSnap) error {
	var names []byte
	for _, s := range []managedSnap{cur, prev} {
		if s.path != "" {
			names = append(names, filepath.Base(s.path)+"\n"...)
		}
	}
	return atomicfile.WriteDurable(filepath.Join(m.dir, currentFile), names)
}

// OpenLatest adopts the generations the pointer file commits, or
// without a servable one the newest valid snapshots in the directory
// (from a previous process life), and serves the current one. Files
// that fail validation are skipped; every other snapshot file is
// unlinked, as are temp files a write cut short by a crash left behind.
// Returns ErrNoPrevious when the directory holds no servable snapshot.
func (m *SnapshotManager) OpenLatest() (uint64, error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return 0, err
	}
	var paths []string
	for _, e := range ents {
		path := filepath.Join(m.dir, e.Name())
		switch {
		case strings.HasPrefix(e.Name(), atomicfile.TempPrefix):
			os.Remove(path)
		case !e.IsDir() && filepath.Ext(path) == ".snap":
			paths = append(paths, path)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	var committed []string
	raw, _ := os.ReadFile(filepath.Join(m.dir, currentFile))
	for _, name := range strings.Fields(string(raw)) {
		if p := filepath.Join(m.dir, name); slices.Contains(paths, p) && !slices.Contains(committed, p) {
			committed = append(committed, p)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.adopt(committed)
	if len(kept) == 0 {
		kept = m.adopt(paths)
	}
	if len(kept) == 0 {
		return 0, ErrNoPrevious
	}
	for _, p := range paths {
		if !slices.ContainsFunc(kept, func(s managedSnap) bool { return s.path == p }) {
			os.Remove(p)
		}
	}
	m.current, m.previous = kept[0], managedSnap{}
	if len(kept) > 1 {
		m.previous = kept[1]
	}
	return m.current.gen, nil
}

// adopt serves the first valid file of paths and returns it followed by
// the next valid one, if any (m.mu held).
func (m *SnapshotManager) adopt(paths []string) []managedSnap {
	var kept []managedSnap
	for _, path := range paths {
		if len(kept) == 0 {
			gen, err := m.svc.LoadSnapshotFile(path)
			if err != nil {
				continue
			}
			kept = append(kept, managedSnap{gen: gen, fingerprint: m.svc.Snapshot().Meta.Fingerprint, path: path})
			continue
		}
		if d, err := snapshot.Open(path); err == nil {
			return append(kept, managedSnap{gen: d.Generation, fingerprint: d.Fingerprint, path: path})
		}
	}
	return kept
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
