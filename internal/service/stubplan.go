package service

// The stub-aware plan surface: /v1/compat/plan answers "what should a
// compatibility layer implement, fake, or stub next?" against measured
// per-package verdicts (internal/stubplan) instead of presence-only
// footprints. The verdict matrix is expensive — thousands of emulator
// runs on a cold persistent cache — so it is built lazily on the first
// plan query of a generation, serialized under a mutex, published
// through an atomic pointer, and every per-system plan is then folded
// into the generation's hotset so steady-state plan traffic is a map
// probe like any other hot answer.

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/compat"
	"repro/internal/stubplan"
)

// ErrUnknownSystem reports a plan query for a compatibility layer the
// study does not model.
var ErrUnknownSystem = errors.New("service: unknown system")

// stubState is one generation's published verdict matrix.
type stubState struct {
	gen    uint64
	matrix *stubplan.Matrix
}

// planKey is the canonical plan cache key: generation prefix plus the
// lowercased system identity, so case variants share one entry.
func planKey(prefix string, sys compat.System) string {
	return "plan|" + prefix + "|" + strings.ToLower(sys.Name+sys.Version)
}

// ensureMatrix returns the verdict matrix for snap's generation,
// building and publishing it on first use. The build runs the
// corpus's executables through the emulator under fault injection
// (or replays cached verdicts when the analysis cache already holds
// them); concurrent first queries serialize on stubMu and all but one
// reuse the winner's matrix.
func (s *Service) ensureMatrix(snap *Snapshot) *stubplan.Matrix {
	if st := s.stub.Load(); st != nil && st.gen == snap.Generation {
		return st.matrix
	}
	s.stubMu.Lock()
	defer s.stubMu.Unlock()
	if st := s.stub.Load(); st != nil && st.gen == snap.Generation {
		return st.matrix
	}
	m := stubplan.BuildMatrix(snap.Study.Core(), stubplan.Options{Cache: s.cfg.Cache})
	s.stub.Store(&stubState{gen: snap.Generation, matrix: m})
	s.stubBuilds.Add(1)
	s.publishPlanHotset(snap, m)
	return m
}

// publishPlanHotset folds every modeled system's plan into the current
// hotset, so plan queries after the first join the lock-free read path.
// The swap is conditional: if the snapshot moved while the matrix was
// building, the stale entries are simply not published — the next
// generation's first plan query rebuilds against its own hotset.
func (s *Service) publishPlanHotset(snap *Snapshot, m *stubplan.Matrix) {
	old := s.hot.Load()
	prefix := strconv.FormatUint(snap.Generation, 10)
	if old == nil || old.prefix != prefix {
		return
	}
	merged := &hotset{
		entries: make(map[string]Encoded, len(old.entries)+8),
		prefix:  old.prefix,
		pathLen: old.pathLen,
		bytes:   old.bytes,
	}
	for k, v := range old.entries {
		merged.entries[k] = v
	}
	targets := append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
	for _, sys := range targets {
		res := buildPlan(snap, sys, m)
		res.Cached = true
		key := planKey(prefix, sys)
		enc, err := encodeAnswer(200, etagFor(snap.Meta.Fingerprint, key), res)
		if err != nil {
			continue // unencodable answers fall back to the compute path
		}
		merged.entries[key] = enc
		merged.bytes += int64(len(key)) + int64(len(enc.Body)) + int64(len(enc.ETag))
	}
	s.hot.CompareAndSwap(old, merged)
}

// PlanResult answers /v1/compat/plan.
type PlanResult struct {
	*stubplan.Plan
	Generation uint64 `json:"generation"`
	Cached     bool   `json:"cached"`
}

// buildPlan is the one plan-answer builder behind the hotset, the
// byte path and the plan-build job: the ordered implement-vs-stub
// worklist for one modeled compatibility layer, judged against the
// matrix's measured stub/fake tolerance.
func buildPlan(snap *Snapshot, sys compat.System, m *stubplan.Matrix) PlanResult {
	return PlanResult{
		Plan:       stubplan.BuildPlan(snap.Study.Core().Input, snap.Study.GreedyPath(), sys, m),
		Generation: snap.Generation,
	}
}

// PlanBytes answers /v1/compat/plan. The first plan query of a
// generation pays the verdict-matrix build (or a cache replay) and
// publishes every modeled system's answer, so later queries are hotset
// hits.
func (s *Service) PlanBytes(system string) (Encoded, error) {
	sys, ok := compat.SystemByName(system)
	if !ok {
		return Encoded{}, fmt.Errorf("%w: %q", ErrUnknownSystem, system)
	}
	s.planQueries.Add(1)
	snap := s.Snapshot()
	prefix := strconv.FormatUint(snap.Generation, 10)
	base := func() string { return snap.Meta.Fingerprint }
	return s.fetchEncoded(s.bcache.ep(epPlan), planKey(prefix, sys), base,
		func() (any, any, int, error) {
			cold := buildPlan(snap, sys, s.ensureMatrix(snap))
			warm := cold
			warm.Cached = true
			return cold, warm, 200, nil
		})
}
