// Package evolution builds and serves multi-generation corpus studies:
// a deterministic release series (corpus.GenerateSeries) is pushed
// through the full analysis pipeline generation by generation — through a
// shared content-addressed analysis cache, so only drifted and newborn
// binaries re-analyze — and every generation is persisted as a columnar
// `gen-*.snap` snapshot next to a `trends.json` holding the
// cross-generation trend series:
//
//   - importance drift per API (weighted and unweighted trajectories),
//   - weighted-completeness trajectory per compatibility target, and
//   - APIs trending toward or away from the head of the greedy path.
//
// Two builds from the same SeriesConfig produce byte-identical snapshot
// and trend files.
package evolution

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/corpus"
	"repro/internal/linuxapi"
)

// DefaultPathHead is the greedy-path prefix length used for "toward/away
// from the path" trends: roughly the paper's ~200-call support threshold
// scaled to where the completeness curve flattens on laptop corpora.
const DefaultPathHead = 40

// TrendsFile is the name of the trend-series file inside a series dir.
const TrendsFile = "trends.json"

// Config parameterizes a series build.
type Config struct {
	// Series configures the release series to generate and analyze.
	Series corpus.SeriesConfig
	// Dir receives gen-*.snap and trends.json. Required.
	Dir string
	// Cache is the shared analysis cache; with a warm cache only changed
	// binaries re-analyze. Optional.
	Cache *repro.AnalysisCache
	// Analyze optionally distributes per-generation analysis (fleet).
	Analyze repro.JobAnalyzer
	// PathHead is the greedy-path prefix length for path trends
	// (default DefaultPathHead).
	PathHead int
}

// GenerationInfo describes one built generation.
type GenerationInfo struct {
	Index       int    `json:"index"`
	Snapshot    string `json:"snapshot"`
	Fingerprint string `json:"fingerprint"`
	Packages    int    `json:"packages"`
	// CacheHits/CacheMisses are the analysis-cache deltas while this
	// generation built: misses are the binaries that actually
	// re-analyzed, hits the ones served from the cache.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// APITrend is the per-API importance trajectory across the series.
type APITrend struct {
	API  string `json:"api"`
	Kind string `json:"kind"`
	// Importance and Unweighted hold one value per generation.
	Importance []float64 `json:"importance"`
	Unweighted []float64 `json:"unweighted"`
	// Drift is the last-minus-first importance change.
	Drift float64 `json:"drift"`
}

// TargetTrend is the weighted-completeness trajectory of one
// compatibility target (Table 6 row) across the series.
type TargetTrend struct {
	Name         string    `json:"name"`
	Version      string    `json:"version"`
	Completeness []float64 `json:"completeness"`
	Drift        float64   `json:"drift"`
}

// PathTrend tracks one system call's position in the greedy-path head
// across generations. Rank is 1-based; 0 means outside the head.
type PathTrend struct {
	API  string `json:"api"`
	Rank []int  `json:"rank"`
	// Direction is "toward" (entered the head or climbed), "away" (left
	// the head or fell), or "stable".
	Direction string `json:"direction"`
}

// Trends is the cross-generation trend series stored in trends.json.
type Trends struct {
	Generations  []GenerationInfo `json:"generations"`
	PathHead     int              `json:"path_head"`
	Importance   []APITrend       `json:"importance"`
	Completeness []TargetTrend    `json:"completeness"`
	Path         []PathTrend      `json:"path"`
}

// Series is a built or loaded release series ready to serve queries.
type Series struct {
	Dir     string
	Trends  *Trends
	studies []*repro.Study
}

// Generations returns the number of generations in the series.
func (s *Series) Generations() int { return len(s.studies) }

// Study returns the study serving generation gen, or nil if out of range.
func (s *Series) Study(gen int) *repro.Study {
	if gen < 0 || gen >= len(s.studies) {
		return nil
	}
	return s.studies[gen]
}

// Build generates the release series, analyzes every generation through
// the shared cache, persists gen-*.snap snapshots plus trends.json into
// cfg.Dir, and returns the in-memory series.
func Build(cfg Config) (*Series, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("evolution: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	corpora, err := corpus.GenerateSeries(cfg.Series)
	if err != nil {
		return nil, fmt.Errorf("evolution: generating series: %w", err)
	}

	var (
		studies []*repro.Study
		infos   []GenerationInfo
		prev    repro.CacheStats
	)
	if cfg.Cache != nil {
		prev = cfg.Cache.Stats()
	}
	for g, c := range corpora {
		st, err := repro.NewStudyOverCorpus(c, cfg.Cache, cfg.Analyze)
		if err != nil {
			return nil, fmt.Errorf("evolution: generation %d: %w", g, err)
		}
		info := GenerationInfo{
			Index:       g,
			Snapshot:    snapName(g),
			Fingerprint: st.Fingerprint(),
			Packages:    len(st.Packages()),
		}
		if cfg.Cache != nil {
			now := cfg.Cache.Stats()
			info.CacheHits = now.Hits - prev.Hits
			info.CacheMisses = now.Misses - prev.Misses
			prev = now
		}
		if err := st.WriteSnapshot(filepath.Join(cfg.Dir, info.Snapshot), uint64(g+1)); err != nil {
			return nil, fmt.Errorf("evolution: snapshot generation %d: %w", g, err)
		}
		studies = append(studies, st)
		infos = append(infos, info)
	}

	trends := ComputeTrends(studies, cfg.PathHead)
	trends.Generations = infos
	if err := writeTrends(filepath.Join(cfg.Dir, TrendsFile), trends); err != nil {
		return nil, err
	}
	return &Series{Dir: cfg.Dir, Trends: trends, studies: studies}, nil
}

// Load opens a series directory written by Build: trends.json plus the
// per-generation snapshots.
func Load(dir string) (*Series, error) {
	raw, err := os.ReadFile(filepath.Join(dir, TrendsFile))
	if err != nil {
		return nil, err
	}
	var trends Trends
	if err := json.Unmarshal(raw, &trends); err != nil {
		return nil, fmt.Errorf("evolution: parsing %s: %w", TrendsFile, err)
	}
	s := &Series{Dir: dir, Trends: &trends}
	for _, info := range trends.Generations {
		st, err := repro.LoadSnapshotStudy(filepath.Join(dir, info.Snapshot))
		if err != nil {
			return nil, fmt.Errorf("evolution: loading %s: %w", info.Snapshot, err)
		}
		if fp := st.Fingerprint(); fp != info.Fingerprint {
			return nil, fmt.Errorf("evolution: %s fingerprint %s does not match trends.json %s",
				info.Snapshot, fp, info.Fingerprint)
		}
		s.studies = append(s.studies, st)
	}
	return s, nil
}

func snapName(gen int) string { return fmt.Sprintf("gen-%04d.snap", gen) }

// ComputeTrends derives the cross-generation trend series from the
// per-generation studies. It is exported so offline recomputation (tests,
// apidiff -timeline) goes through the same definition the serving path
// stores.
func ComputeTrends(studies []*repro.Study, pathHead int) *Trends {
	if pathHead <= 0 {
		pathHead = DefaultPathHead
	}
	n := len(studies)
	t := &Trends{PathHead: pathHead}

	// Importance drift per API: the union of every generation's measured
	// APIs, each with a full trajectory (0 where unmeasured).
	seen := map[linuxapi.API]bool{}
	var order []linuxapi.API
	for _, st := range studies {
		r := st.Metrics()
		for api := range r.Importance {
			if !seen[api] {
				seen[api] = true
				order = append(order, api)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Kind != order[j].Kind {
			return order[i].Kind < order[j].Kind
		}
		return order[i].Name < order[j].Name
	})
	for _, api := range order {
		tr := APITrend{
			API:        api.Name,
			Kind:       api.Kind.String(),
			Importance: make([]float64, n),
			Unweighted: make([]float64, n),
		}
		for g, st := range studies {
			r := st.Metrics()
			tr.Importance[g] = r.Importance[api]
			tr.Unweighted[g] = r.Unweighted[api]
		}
		tr.Drift = tr.Importance[n-1] - tr.Importance[0]
		t.Importance = append(t.Importance, tr)
	}

	// Weighted-completeness trajectory per compat target, in the fixed
	// Table 6 evaluation order.
	for g, st := range studies {
		for i, res := range st.EvaluateSystems() {
			if g == 0 {
				t.Completeness = append(t.Completeness, TargetTrend{
					Name:         res.System.Name,
					Version:      res.System.Version,
					Completeness: make([]float64, n),
				})
			}
			t.Completeness[i].Completeness[g] = res.Completeness
		}
	}
	for i := range t.Completeness {
		c := t.Completeness[i].Completeness
		t.Completeness[i].Drift = c[n-1] - c[0]
	}

	// Greedy-path membership: every syscall that appears in any
	// generation's head, with its per-generation rank.
	ranks := make([]map[string]int, n)
	var pathOrder []string
	pathSeen := map[string]bool{}
	for g, st := range studies {
		ranks[g] = map[string]int{}
		path := st.Metrics().Path
		if len(path) > pathHead {
			path = path[:pathHead]
		}
		for i, pp := range path {
			ranks[g][pp.API.Name] = i + 1
			if !pathSeen[pp.API.Name] {
				pathSeen[pp.API.Name] = true
				pathOrder = append(pathOrder, pp.API.Name)
			}
		}
	}
	sort.Strings(pathOrder)
	for _, api := range pathOrder {
		tr := PathTrend{API: api, Rank: make([]int, n)}
		for g := range studies {
			tr.Rank[g] = ranks[g][api]
		}
		tr.Direction = pathDirection(tr.Rank)
		t.Path = append(t.Path, tr)
	}
	return t
}

// pathDirection classifies a rank trajectory: entering the head or
// climbing toward rank 1 is "toward", leaving or falling is "away".
func pathDirection(rank []int) string {
	first, last := rank[0], rank[len(rank)-1]
	switch {
	case first == 0 && last > 0:
		return "toward"
	case first > 0 && last == 0:
		return "away"
	case first > 0 && last > 0 && last < first:
		return "toward"
	case first > 0 && last > 0 && last > first:
		return "away"
	default:
		return "stable"
	}
}

// writeTrends persists trends.json deterministically, with the same
// durable write as the snapshots beside it.
func writeTrends(path string, t *Trends) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteDurable(path, append(data, '\n'))
}
