package service

import (
	"errors"
	"fmt"
	"time"

	"repro"
)

// SwapAt publishes study at an explicit generation — the
// publisher-assigned generation of a pushed snapshot file — instead of
// advancing the local counter. Unlike Swap, the generation may repeat or
// move backwards (first push onto a fresh replica, rollback), so the
// byte cache is cleared: generation-embedded keys cannot be trusted
// across an explicit swap. In-flight requests still finish on
// the old snapshot untouched.
func (s *Service) SwapAt(study *repro.Study, source string, gen uint64, file string) uint64 {
	s.gen.Store(gen)
	study.SetGeneration(gen)
	// Explicit generations may repeat or move backwards (push, rollback),
	// so generation-prefixed cache keys cannot be trusted across this
	// swap: flush the byte cache, then publish the rebuilt hotset.
	s.bcache.Reset()
	meta := study.Meta()
	hot := buildHotset(study, gen, meta.Fingerprint, meta.Packages)
	s.snap.Store(&Snapshot{
		Study:      study,
		Generation: gen,
		Source:     source,
		LoadedAt:   time.Now(),
		Meta:       meta,
		File:       file,
	})
	s.hot.Store(hot)
	return gen
}

// LoadSnapshotFile reads the snapshot file at path into memory and
// swaps the restored study in at the file's own generation. Any
// validation failure — truncation, bad magic, version skew, checksum
// mismatch — is counted and returned without touching the served
// snapshot. The swapped-out study is garbage once the last request
// holding it returns, and later changes to the file do not reach the
// served study.
func (s *Service) LoadSnapshotFile(path string) (uint64, error) {
	study, err := repro.LoadSnapshotStudy(path)
	if err != nil {
		s.snapshotLoadErrors.Add(1)
		return 0, err
	}
	s.snapshotLoads.Add(1)
	return s.SwapAt(study, "snapshot:"+path, study.SnapshotGeneration(), path), nil
}

// ReloadSnapshot serves the snapshot file at path; if the file is
// missing or fails validation it falls back to rebuilding from the
// corpus directory (when one is given), counting the fallback. The
// service never serves data from a snapshot that failed validation —
// it either serves the rebuild or keeps its current snapshot.
func (s *Service) ReloadSnapshot(path, fallbackDir string) (uint64, error) {
	gen, err := s.LoadSnapshotFile(path)
	if err == nil {
		return gen, nil
	}
	if fallbackDir == "" {
		return 0, err
	}
	s.snapshotFallbacks.Add(1)
	gen, rerr := s.Reload(fallbackDir)
	if rerr != nil {
		return 0, errors.Join(fmt.Errorf("snapshot %s: %w", path, err), rerr)
	}
	return gen, nil
}
