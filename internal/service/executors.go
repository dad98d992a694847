// The job executors: the four heavy analyses that must not run on the
// serving path, packaged as jobs.Executor implementations over the
// resident Service. Each executor classifies its failures — malformed
// parameters and impossible requests are wrapped jobs.Permanent (a
// retry cannot fix them), while resource saturation (ErrBusy) is left
// transient so the job tier's backoff absorbs load spikes instead of
// dead-lettering work that would have succeeded a second later.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/compat"
	"repro/internal/corpus"
	"repro/internal/evolution"
	"repro/internal/jobs"
	"repro/internal/stubplan"
)

// Job type names registered by RegisterExecutors.
const (
	JobAnalyzeUpload   = "analyze-upload"
	JobCorpusDiff      = "corpus-diff"
	JobCompatMatrix    = "compat-matrix"
	JobSnapshotRebuild = "snapshot-rebuild"
	JobTimelineBuild   = "timeline-build"
	JobPlanBuild       = "plan-build"
)

// RegisterExecutors registers every service-backed job type on m.
func RegisterExecutors(m *jobs.Manager, s *Service) error {
	for _, ex := range []jobs.Executor{
		analyzeUploadExec{s},
		corpusDiffExec{s},
		compatMatrixExec{s},
		snapshotRebuildExec{s},
		timelineBuildExec{s},
		planBuildExec{s},
	} {
		if err := m.Register(ex); err != nil {
			return err
		}
	}
	return nil
}

// AnalyzeUploadParams are the analyze-upload job parameters. ELF
// travels base64-encoded inside the params JSON — which is what lets
// the fingerprint dedupe two uploads of the same binary bytes.
type AnalyzeUploadParams struct {
	Name string `json:"name,omitempty"`
	ELF  []byte `json:"elf"`
}

type analyzeUploadExec struct{ s *Service }

func (analyzeUploadExec) Type() string { return JobAnalyzeUpload }

func (e analyzeUploadExec) Execute(ctx context.Context, raw json.RawMessage) (any, error) {
	var p AnalyzeUploadParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, jobs.Permanent(fmt.Errorf("decoding params: %w", err))
	}
	if len(p.ELF) == 0 {
		return nil, jobs.Permanent(errors.New("empty elf payload"))
	}
	res, err := e.s.Analyze(ctx, p.Name, p.ELF)
	switch {
	case err == nil:
		return res, nil
	case errors.Is(err, ErrBusy):
		return nil, err // transient: the pool will drain
	default:
		return nil, jobs.Permanent(err) // the binary itself is bad
	}
}

// CorpusDiffParams are the corpus-diff job parameters: a baseline
// corpus configuration to generate and analyze, diffed against the
// resident study — the longitudinal comparison the paper leaves as
// future work, as minutes-of-compute batch work.
type CorpusDiffParams struct {
	// Packages, Installations and Seed configure the baseline corpus.
	Packages      int   `json:"packages"`
	Installations int64 `json:"installations,omitempty"`
	Seed          int64 `json:"seed"`
	// Threshold is the minimum absolute importance movement reported
	// (default 0.01); Limit caps the rows returned (default 100).
	Threshold float64 `json:"threshold,omitempty"`
	Limit     int     `json:"limit,omitempty"`
}

// APIDeltaRow is one repro.APIDelta in wire form.
type APIDeltaRow struct {
	API           string  `json:"api"`
	Kind          string  `json:"kind"`
	OldImportance float64 `json:"old_importance"`
	NewImportance float64 `json:"new_importance"`
	OldUnweighted float64 `json:"old_unweighted"`
	NewUnweighted float64 `json:"new_unweighted"`
	Appeared      bool    `json:"appeared,omitempty"`
	Disappeared   bool    `json:"disappeared,omitempty"`
}

// CorpusDiffResult is the corpus-diff job result.
type CorpusDiffResult struct {
	Baseline   CorpusDiffParams `json:"baseline"`
	Threshold  float64          `json:"threshold"`
	Total      int              `json:"total"`
	Deltas     []APIDeltaRow    `json:"deltas"`
	Generation uint64           `json:"generation"`
}

type corpusDiffExec struct{ s *Service }

func (corpusDiffExec) Type() string { return JobCorpusDiff }

func (e corpusDiffExec) Execute(ctx context.Context, raw json.RawMessage) (any, error) {
	var p CorpusDiffParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, jobs.Permanent(fmt.Errorf("decoding params: %w", err))
	}
	if p.Packages <= 0 {
		return nil, jobs.Permanent(errors.New("packages must be positive"))
	}
	if p.Threshold <= 0 {
		p.Threshold = 0.01
	}
	if p.Limit <= 0 {
		p.Limit = 100
	}
	old, err := repro.NewStudy(repro.Config{
		Packages:      p.Packages,
		Installations: p.Installations,
		Seed:          p.Seed,
	})
	if err != nil {
		return nil, jobs.Permanent(fmt.Errorf("building baseline study: %w", err))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := e.s.Snapshot()
	deltas := snap.Study.Diff(old, p.Threshold)
	out := CorpusDiffResult{
		Baseline:   p,
		Threshold:  p.Threshold,
		Total:      len(deltas),
		Generation: snap.Generation,
	}
	if len(deltas) > p.Limit {
		deltas = deltas[:p.Limit]
	}
	for _, d := range deltas {
		out.Deltas = append(out.Deltas, APIDeltaRow{
			API: d.API, Kind: d.Kind,
			OldImportance: d.OldImportance, NewImportance: d.NewImportance,
			OldUnweighted: d.OldUnweighted, NewUnweighted: d.NewUnweighted,
			Appeared: d.Appeared, Disappeared: d.Disappeared,
		})
	}
	return out, nil
}

// LibcRow is one evaluated libc variant (Table 7) in wire form.
type LibcRow struct {
	Name           string   `json:"name"`
	Version        string   `json:"version"`
	Exported       int      `json:"exported"`
	Raw            float64  `json:"raw"`
	Normalized     float64  `json:"normalized"`
	MissingSamples []string `json:"missing_samples,omitempty"`
}

// CompatMatrixResult is the compat-matrix job result: both published
// compatibility tables (6 and 7) evaluated against the resident study
// in one pass.
type CompatMatrixResult struct {
	Systems      []SystemRow `json:"systems"`
	LibcVariants []LibcRow   `json:"libc_variants"`
	Generation   uint64      `json:"generation"`
}

type compatMatrixExec struct{ s *Service }

func (compatMatrixExec) Type() string { return JobCompatMatrix }

func (e compatMatrixExec) Execute(ctx context.Context, raw json.RawMessage) (any, error) {
	var p struct{}
	if len(raw) > 0 && string(raw) != "null" {
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, jobs.Permanent(fmt.Errorf("decoding params: %w", err))
		}
	}
	snap := e.s.Snapshot()
	out := CompatMatrixResult{Systems: buildCompatRows(snap.Study), Generation: snap.Generation}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, r := range snap.Study.EvaluateLibcVariants() {
		out.LibcVariants = append(out.LibcVariants, LibcRow{
			Name:           r.Variant.Name,
			Version:        r.Variant.Version,
			Exported:       r.Exported,
			Raw:            r.Raw,
			Normalized:     r.Normalized,
			MissingSamples: r.MissingSamples,
		})
	}
	return out, nil
}

// SnapshotRebuildParams are the snapshot-rebuild job parameters:
// either an on-disk corpus to re-analyze (CorpusDir) or a generation
// config — exactly one.
type SnapshotRebuildParams struct {
	CorpusDir     string `json:"corpus_dir,omitempty"`
	Packages      int    `json:"packages,omitempty"`
	Installations int64  `json:"installations,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
}

// SnapshotRebuildResult is the snapshot-rebuild job result.
type SnapshotRebuildResult struct {
	Generation  uint64 `json:"generation"`
	Source      string `json:"source"`
	Fingerprint string `json:"fingerprint"`
	Packages    int    `json:"packages"`
}

// TimelineBuildParams are the timeline-build job parameters: a release
// series to generate, analyze generation by generation through the
// service's analysis cache, persist as gen-*.snap snapshots plus
// trends.json, and install for /v1/trends serving.
type TimelineBuildParams struct {
	// Packages, Installations and Seed configure generation 0.
	Packages      int   `json:"packages"`
	Installations int64 `json:"installations,omitempty"`
	Seed          int64 `json:"seed"`
	// Generations is the series length (default 3). Births, Deaths,
	// Drifts, Rewires and PopconShift are the per-generation mutation
	// rates (zero values take corpus.DefaultSeriesConfig's defaults).
	Generations int     `json:"generations,omitempty"`
	Births      int     `json:"births,omitempty"`
	Deaths      int     `json:"deaths,omitempty"`
	Drifts      int     `json:"drifts,omitempty"`
	Rewires     int     `json:"rewires,omitempty"`
	PopconShift float64 `json:"popcon_shift,omitempty"`
	// Dir receives the snapshots and trend series; empty uses a fresh
	// temporary directory.
	Dir string `json:"dir,omitempty"`
}

// TimelineBuildResult is the timeline-build job result.
type TimelineBuildResult struct {
	Generations  int      `json:"generations"`
	Fingerprints []string `json:"fingerprints"`
	Dir          string   `json:"dir"`
	DurationMs   int64    `json:"duration_ms"`
	// TrendAPIs counts the per-API importance trajectories computed.
	TrendAPIs int `json:"trend_apis"`
}

type timelineBuildExec struct{ s *Service }

func (timelineBuildExec) Type() string { return JobTimelineBuild }

func (e timelineBuildExec) Execute(ctx context.Context, raw json.RawMessage) (any, error) {
	var p TimelineBuildParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, jobs.Permanent(fmt.Errorf("decoding params: %w", err))
	}
	if p.Packages <= 0 {
		return nil, jobs.Permanent(errors.New("packages must be positive"))
	}
	sc := corpus.DefaultSeriesConfig()
	sc.Base = corpus.Config{
		Packages:      p.Packages,
		Installations: p.Installations,
		Seed:          p.Seed,
	}
	if p.Generations > 0 {
		sc.Generations = p.Generations
	}
	if p.Births > 0 {
		sc.Births = p.Births
	}
	if p.Deaths > 0 {
		sc.Deaths = p.Deaths
	}
	if p.Drifts > 0 {
		sc.Drifts = p.Drifts
	}
	if p.Rewires > 0 {
		sc.Rewires = p.Rewires
	}
	if p.PopconShift > 0 {
		sc.PopconShift = p.PopconShift
	}
	dir := p.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "timeline-*"); err != nil {
			return nil, err // transient: disk pressure may pass
		}
	}
	var analyze repro.JobAnalyzer
	if e.s.cfg.Fleet != nil {
		analyze = e.s.cfg.Fleet.AnalyzeJobs
	}
	start := time.Now()
	series, err := evolution.Build(evolution.Config{
		Series:  sc,
		Dir:     dir,
		Cache:   e.s.cfg.Cache,
		Analyze: analyze,
	})
	if err != nil {
		return nil, jobs.Permanent(fmt.Errorf("building series: %w", err))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dur := time.Since(start)
	e.s.InstallSeries(series, dur)
	out := TimelineBuildResult{
		Generations: series.Generations(),
		Dir:         dir,
		DurationMs:  dur.Milliseconds(),
		TrendAPIs:   len(series.Trends.Importance),
	}
	for _, info := range series.Trends.Generations {
		out.Fingerprints = append(out.Fingerprints, info.Fingerprint)
	}
	return out, nil
}

// PlanBuildParams are the plan-build job parameters: one modeled
// compatibility layer, or every layer when System is "all" or empty.
// The job exists because the first plan of a generation pays the full
// emulator-driven verdict-matrix build — minutes of compute on a cold
// verdict cache — which must not run on the serving path.
type PlanBuildParams struct {
	System string `json:"system,omitempty"`
}

// PlanBuildResult is the plan-build job result.
type PlanBuildResult struct {
	Plans      []PlanResult   `json:"plans"`
	Stats      stubplan.Stats `json:"stats"`
	Generation uint64         `json:"generation"`
}

type planBuildExec struct{ s *Service }

func (planBuildExec) Type() string { return JobPlanBuild }

func (e planBuildExec) Execute(ctx context.Context, raw json.RawMessage) (any, error) {
	var p PlanBuildParams
	if len(raw) > 0 && string(raw) != "null" {
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, jobs.Permanent(fmt.Errorf("decoding params: %w", err))
		}
	}
	var systems []compat.System
	switch name := strings.ToLower(strings.TrimSpace(p.System)); name {
	case "", "all":
		systems = append(append(systems, compat.Systems...), compat.GrapheneFixed)
	default:
		sys, ok := compat.SystemByName(name)
		if !ok {
			return nil, jobs.Permanent(fmt.Errorf("%w: %q", ErrUnknownSystem, p.System))
		}
		systems = append(systems, sys)
	}
	snap := e.s.Snapshot()
	// One ensureMatrix pays (or replays) the verdict build and publishes
	// every system's plan to the hotset; the per-system plans after it
	// are cheap fresh builds (Cached false).
	m := e.s.ensureMatrix(snap)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := PlanBuildResult{Stats: m.Stats, Generation: snap.Generation}
	for _, sys := range systems {
		out.Plans = append(out.Plans, buildPlan(snap, sys, m))
	}
	return out, nil
}

type snapshotRebuildExec struct{ s *Service }

func (snapshotRebuildExec) Type() string { return JobSnapshotRebuild }

func (e snapshotRebuildExec) Execute(ctx context.Context, raw json.RawMessage) (any, error) {
	var p SnapshotRebuildParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, jobs.Permanent(fmt.Errorf("decoding params: %w", err))
	}
	var (
		gen uint64
		err error
	)
	switch {
	case p.CorpusDir != "" && p.Packages > 0:
		return nil, jobs.Permanent(errors.New("corpus_dir and packages are mutually exclusive"))
	case p.CorpusDir != "":
		// A missing or corrupt corpus directory may be a deploy still
		// rsyncing — transient, let the backoff ride it out.
		gen, err = e.s.Reload(p.CorpusDir)
	case p.Packages > 0:
		gen, err = e.s.RebuildGenerated(repro.Config{
			Packages:      p.Packages,
			Installations: p.Installations,
			Seed:          p.Seed,
		})
	default:
		return nil, jobs.Permanent(errors.New("need corpus_dir or packages"))
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := e.s.Snapshot()
	return SnapshotRebuildResult{
		Generation:  gen,
		Source:      snap.Source,
		Fingerprint: snap.Meta.Fingerprint,
		Packages:    snap.Meta.Packages,
	}, nil
}
