package service

// Release-series serving: a built evolution.Series (N generations of the
// corpus, each a full study, plus precomputed cross-generation trend
// series) is held behind its own atomic pointer, separate from the main
// serving snapshot. Trend queries answer straight from the precomputed
// series; a generation selector (`?gen=`) retargets the ordinary query
// methods at one generation's study. Installing a new series bumps a
// series id that is embedded in every derived-query cache key, so stale
// entries die with the swap exactly like snapshot generations do.

import (
	"errors"
	"time"

	"repro/internal/evolution"
)

// ErrNoSeries reports a trend or generation query without a resident
// release series.
var ErrNoSeries = errors.New("service: no release series resident")

// ErrBadGeneration reports a generation selector outside the series.
var ErrBadGeneration = errors.New("service: generation out of range")

// seriesState is the atomically-swapped resident series.
type seriesState struct {
	series      *evolution.Series
	id          uint64
	buildDur    time.Duration
	installedAt time.Time
}

// InstallSeries publishes a release series (usually from evolution.Build
// or evolution.Load) for trend and generation-selected queries. buildDur
// records how long the series took to build, surfaced in /metrics.
// Returns the number of generations now resident.
func (s *Service) InstallSeries(sr *evolution.Series, buildDur time.Duration) int {
	id := s.seriesInstalls.Add(1)
	s.series.Store(&seriesState{
		series:      sr,
		id:          id,
		buildDur:    buildDur,
		installedAt: time.Now(),
	})
	return sr.Generations()
}

// Series returns the resident release series, or nil.
func (s *Service) Series() *evolution.Series {
	if ss := s.series.Load(); ss != nil {
		return ss.series
	}
	return nil
}

// TrendImportanceResult answers /v1/trends/importance.
type TrendImportanceResult struct {
	Generations int                  `json:"generations"`
	Trends      []evolution.APITrend `json:"trends"`
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TrendCompletenessResult answers /v1/trends/completeness.
type TrendCompletenessResult struct {
	Generations int                     `json:"generations"`
	Targets     []evolution.TargetTrend `json:"targets"`
}

// TrendPathResult answers /v1/trends/path.
type TrendPathResult struct {
	Generations int                   `json:"generations"`
	PathHead    int                   `json:"path_head"`
	Trends      []evolution.PathTrend `json:"trends"`
}
