package metrics_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// corpusInput analyzes a generated corpus whose survey total is not a
// power of two, so installation fractions are inexact binary fractions
// and their sums depend on the order they are added in.
func corpusInput(t *testing.T) *metrics.Input {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{Packages: 40, Installations: 200000, Seed: 7})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	s, err := core.Run(c, footprint.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return s.Input
}

func apisOf(path []metrics.PathPoint) []linuxapi.API {
	out := make([]linuxapi.API, len(path))
	for i, pt := range path {
		out[i] = pt.API
	}
	return out
}

// randomSubset keeps each API with probability p.
func randomSubset(rng *rand.Rand, apis []linuxapi.API, p float64) []linuxapi.API {
	var out []linuxapi.API
	for _, api := range apis {
		if rng.Float64() < p {
			out = append(out, api)
		}
	}
	return out
}

// randomOrder shuffles up to about 150 of the APIs outside supported
// (the reference check is quadratic in the order's length) and mixes in
// duplicates, already-supported APIs and APIs that were never interned.
// When supported holds most of the universe, the order holds the rest,
// so packages complete along it under every option.
func randomOrder(rng *rand.Rand, universe []linuxapi.API, supported footprint.Set, trial int) []linuxapi.API {
	var rest, have []linuxapi.API
	for _, api := range universe {
		if supported.Contains(api) {
			have = append(have, api)
		} else {
			rest = append(rest, api)
		}
	}
	order := randomSubset(rng, rest, min(1, 150/float64(len(rest))))
	for i := 0; i < len(have) && i < 8; i++ {
		order = append(order, have[rng.Intn(len(have))])
	}
	for i := 0; i < len(order)/8; i++ {
		order = append(order, order[rng.Intn(len(order))])
	}
	order = append(order,
		linuxapi.Sys(fmt.Sprintf("curve_never_interned_%d", trial)),
		linuxapi.Pseudo(fmt.Sprintf("/proc/curve_never_interned_%d", trial)))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// waiverMaps returns a nil map, an empty map and a partial map: per
// package absent, nil, empty, or a random part of its footprint plus
// APIs outside it.
func waiverMaps(rng *rand.Rand, in *metrics.Input, universe []linuxapi.API) []map[string]footprint.Set {
	partial := make(map[string]footprint.Set)
	for pkg, fp := range in.Footprints {
		switch rng.Intn(5) {
		case 0:
		case 1:
			partial[pkg] = nil
		case 2:
			partial[pkg] = footprint.Set{}
		default:
			w := make(footprint.Set)
			for _, api := range randomSubset(rng, fp.SortedAPIs(), rng.Float64()) {
				w.Add(api)
			}
			w.Add(universe[rng.Intn(len(universe))])
			w.Add(linuxapi.Sys("curve_never_interned_waiver"))
			partial[pkg] = w
		}
	}
	return []map[string]footprint.Set{nil, {}, partial}
}

// checkCurve compares every curve point with the reference evaluation
// of the same prefix, and point 0 with WeightedCompleteness too, bit
// for bit.
func checkCurve(t *testing.T, name string, in *metrics.Input, supported footprint.Set, order []linuxapi.API, opts metrics.CompletenessOptions) {
	t.Helper()
	curve := metrics.CompletenessCurve(in, supported, order, opts)
	if len(curve) != len(order)+1 {
		t.Fatalf("%s: curve has %d points for %d APIs", name, len(curve), len(order))
	}
	if wc := metrics.WeightedCompleteness(in, supported, opts); math.Float64bits(wc) != math.Float64bits(curve[0]) {
		t.Fatalf("%s: WeightedCompleteness = %v, curve point 0 = %v", name, wc, curve[0])
	}
	cur := supported.Clone()
	for k, got := range curve {
		if k > 0 {
			cur.Add(order[k-1])
		}
		want := refWeightedCompleteness(in, cur, opts)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: point %d of %d = %v (%#x), reference = %v (%#x)",
				name, k, len(order), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestCompletenessCurveMatchesPrefixes pins every point of the curve to
// the reference evaluation of the same supported prefix, bit for bit,
// over random supported sets, orders (empty ones included) and waiver
// maps and every option combination. Summing weights per demand level
// and accumulating them (what greedyPath does) changes the low bits on
// the generated corpus, so only a re-sum in sorted package order passes.
func TestCompletenessCurveMatchesPrefixes(t *testing.T) {
	for _, tc := range referenceInputs(t) {
		in := tc.in
		rng := rand.New(rand.NewSource(1))
		universe := in.Universe()
		type draw struct {
			supported footprint.Set
			order     []linuxapi.API
		}
		all := apisOf(metrics.GreedyPathAll(in))
		draws := []draw{
			{nil, apisOf(metrics.GreedyPath(in, linuxapi.KindSyscall))},
			{nil, all[:min(len(all), 200)]},
		}
		for trial, p := range []float64{0, 0.5, 0.95} {
			supported := make(footprint.Set)
			for _, api := range randomSubset(rng, universe, p) {
				supported.Add(api)
			}
			supported.Add(linuxapi.Sys("curve_never_interned_supported"))
			draws = append(draws, draw{supported, randomOrder(rng, universe, supported, trial)}, draw{supported, nil})
		}
		for d, dr := range draws {
			for w, waivable := range waiverMaps(rng, in, universe) {
				// AllKinds ignores Kind, so it runs once.
				kinds := []metrics.CompletenessOptions{
					{Kind: linuxapi.KindSyscall}, {Kind: linuxapi.KindPseudoFile},
					{Kind: linuxapi.KindIoctl}, {AllKinds: true},
				}
				for _, opts := range kinds {
					for _, nodep := range []bool{false, true} {
						opts.NoDependencyPropagation, opts.Waivable = nodep, waivable
						name := fmt.Sprintf("%s draw %d waivers %d kind %v all %v nodep %v",
							tc.name, d, w, opts.Kind, opts.AllKinds, nodep)
						checkCurve(t, name, in, dr.supported, dr.order, opts)
					}
				}
			}
		}
	}
}
