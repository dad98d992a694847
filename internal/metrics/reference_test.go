package metrics_test

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// The references below are direct evaluations of §2.2 — a per-package
// subset test, a DependencyClosure walk per package and name-keyed maps
// — that sum in sorted package order like the kernel, so results
// compare bit for bit.

func sortedPackages(in *metrics.Input) []string {
	pkgs := make([]string, 0, len(in.Footprints))
	for pkg := range in.Footprints {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	return pkgs
}

// refWeightedCompleteness judges each package on its own footprint,
// then marks a weighted package unsupported when any package in its
// dependency closure is.
func refWeightedCompleteness(in *metrics.Input, supported footprint.Set, opts metrics.CompletenessOptions) float64 {
	pkgs := sortedPackages(in)
	apis := linuxapi.InternedAPIs()
	okOwn := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		ok := true
		if fp := in.Footprints[pkg]; fp != nil {
			fp.ForEach(func(id uint32) {
				if api := apis[id]; ok && (opts.AllKinds || api.Kind == opts.Kind) &&
					!supported.Contains(api) && !opts.Waivable[pkg].Contains(api) {
					ok = false
				}
			})
		}
		okOwn[pkg] = ok
	}
	var num, den float64
	for _, pkg := range pkgs {
		w := in.Survey.Fraction(pkg)
		den += w
		if w == 0 {
			continue
		}
		good := okOwn[pkg]
		if good && !opts.NoDependencyPropagation && in.Repo != nil {
			for _, dep := range in.Repo.DependencyClosure(pkg) {
				if ok, known := okOwn[dep]; known && !ok {
					good = false
					break
				}
			}
		}
		if good {
			num += w
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// refGreedyCompleteness recomputes a greedy path's completeness column:
// each package's demand is the highest path rank in its footprint, its
// effective demand the highest over its dependency closure, and the
// weight mass per demand level accumulates along the path.
func refGreedyCompleteness(in *metrics.Input, path []metrics.PathPoint) []float64 {
	rank := make(map[linuxapi.API]int, len(path))
	for i, pt := range path {
		rank[pt.API] = i + 1
	}
	pkgs := sortedPackages(in)
	apis := linuxapi.InternedAPIs()
	demand := make(map[string]int, len(pkgs))
	for _, pkg := range pkgs {
		d := 0
		if fp := in.Footprints[pkg]; fp != nil {
			fp.ForEach(func(id uint32) { d = max(d, rank[apis[id]]) })
		}
		demand[pkg] = d
	}
	effective := make(map[string]int, len(demand))
	for pkg, d := range demand {
		if in.Repo != nil {
			for _, dep := range in.Repo.DependencyClosure(pkg) {
				if dd, ok := demand[dep]; ok && dd > d {
					d = dd
				}
			}
		}
		effective[pkg] = d
	}
	massAt := make([]float64, len(path)+1)
	var total float64
	for _, pkg := range pkgs {
		w := in.Survey.Fraction(pkg)
		total += w
		massAt[effective[pkg]] += w
	}
	out := make([]float64, len(path))
	cum := massAt[0]
	for i := range path {
		cum += massAt[i+1]
		if total > 0 {
			out[i] = cum / total
		}
	}
	return out
}

type namedInput struct {
	name string
	in   *metrics.Input
}

// referenceInputs are the fixture, the 40-package corpus and the corpus
// with no repository (no dependency edges to propagate through).
func referenceInputs(t *testing.T) []namedInput {
	t.Helper()
	corpus := corpusInput(t)
	return []namedInput{
		{"fixture", metrics.Fixture()},
		{"corpus", corpus},
		{"no-repo", &metrics.Input{Survey: corpus.Survey, Footprints: corpus.Footprints, Direct: corpus.Direct}},
	}
}

// TestGreedyPathMatchesReference pins every greedy path's completeness
// column to the reference's, bit for bit: the /v1/path golden depends
// on its per-level accumulation.
func TestGreedyPathMatchesReference(t *testing.T) {
	for _, tc := range referenceInputs(t) {
		paths := map[string][]metrics.PathPoint{"all": metrics.GreedyPathAll(tc.in)}
		for kind := linuxapi.KindSyscall; kind <= linuxapi.KindLibcSym; kind++ {
			paths[fmt.Sprint(kind)] = metrics.GreedyPath(tc.in, kind)
		}
		for name, path := range paths {
			want := refGreedyCompleteness(tc.in, path)
			for i, pt := range path {
				if math.Float64bits(pt.Completeness) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s: point %d completeness %v, reference %v", tc.name, name, i, pt.Completeness, want[i])
				}
			}
		}
	}
}

// TestFirstUseRace has eight goroutines make the first calls on one
// fresh Input at once: the columns and the closure index are built
// under sync.Once, so every goroutine sees the answers a sequential
// first use gives. Run it with -race.
func TestFirstUseRace(t *testing.T) {
	base := corpusInput(t)
	fresh := func() *metrics.Input {
		return &metrics.Input{Repo: base.Repo, Survey: base.Survey, Footprints: base.Footprints, Direct: base.Direct}
	}
	path := metrics.GreedyPath(fresh(), linuxapi.KindSyscall)
	order := apisOf(path)
	half := make(footprint.Set)
	for _, api := range order[:len(order)/2] {
		half.Add(api)
	}
	opts := metrics.CompletenessOptions{Kind: linuxapi.KindSyscall}
	wantWC := metrics.WeightedCompleteness(fresh(), half, opts)
	wantCurve := metrics.CompletenessCurve(fresh(), nil, order, opts)

	in := fresh()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Each goroutine starts on a different call, so each call
			// races the others to first use.
			for i := 0; i < 3; i++ {
				switch (g + i) % 3 {
				case 0:
					if got := metrics.WeightedCompleteness(in, half, opts); got != wantWC {
						t.Errorf("goroutine %d: WeightedCompleteness = %v, want %v", g, got, wantWC)
					}
				case 1:
					got := metrics.CompletenessCurve(in, nil, order, opts)
					for k := range got {
						if got[k] != wantCurve[k] {
							t.Errorf("goroutine %d: curve point %d = %v, want %v", g, k, got[k], wantCurve[k])
							break
						}
					}
				default:
					got := metrics.GreedyPath(in, linuxapi.KindSyscall)
					for k := range got {
						if got[k] != path[k] {
							t.Errorf("goroutine %d: path point %d = %+v, want %+v", g, k, got[k], path[k])
							break
						}
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
