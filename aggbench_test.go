package repro

// BenchmarkAggregateMetrics measures the post-analysis stage the bitset
// rewrite targets: package-footprint hashing, importance, the greedy
// path over the full universe, weighted completeness and the relational
// Record load. The "map" sub-benchmark runs faithful copies of the
// pre-rewrite map-based algorithms (kept here as the reference
// implementation); the "bitset" sub-benchmark runs the live code over
// the same corpus. benchgate gates their ratio in BENCH_pipeline.json.

import (
	"crypto/sha256"
	"math"
	"sort"
	"testing"

	"repro/internal/apt"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/popcon"
	"repro/internal/store"
)

func BenchmarkAggregateMetrics(b *testing.B) {
	s := benchSetup(b)
	in := s.Core().Input
	// Supported sets at three depths of the greedy path exercise the
	// subset test the way iterated suggest/completeness queries do.
	full := metrics.GreedyPath(in, linuxapi.KindSyscall)
	var supports []footprint.Set
	for _, n := range []int{40, 145, len(full)} {
		sup := make(footprint.Set, n)
		for _, pt := range full[:n] {
			sup.Add(pt.API)
		}
		supports = append(supports, sup)
	}

	b.Run("map", func(b *testing.B) {
		ref := refInputOf(in)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hashes := make(map[string]int, len(ref.Footprints))
			for _, fp := range ref.Footprints {
				hashes[refFootprintHash(fp)]++
			}
			path := refGreedyPathAll(ref)
			wc := 0.0
			for _, sup := range supports {
				wc += refWeightedCompleteness(ref, sup, metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
				wc += refWeightedCompleteness(ref, sup, metrics.CompletenessOptions{AllKinds: true})
			}
			t := refRecord(store.NewDB(), ref)
			benchAggSink(b, len(hashes), path, wc, t.PkgAPI.Len())
		}
	})

	b.Run("bitset", func(b *testing.B) {
		sysMask := footprint.KindMask(linuxapi.KindSyscall)
		for i := 0; i < b.N; i++ {
			live := &metrics.Input{
				Repo:       in.Repo,
				Survey:     in.Survey,
				Footprints: in.Footprints,
				Direct:     in.Direct,
			}
			hashes := make(map[string]int, len(live.Footprints))
			for _, fp := range live.Footprints {
				hashes[fp.MaskedKey(sysMask)]++
			}
			path := metrics.GreedyPathAll(live)
			wc := 0.0
			for _, sup := range supports {
				wc += metrics.WeightedCompleteness(live, sup, metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
				wc += metrics.WeightedCompleteness(live, sup, metrics.CompletenessOptions{AllKinds: true})
			}
			t := metrics.Record(store.NewDB(), live)
			benchAggSink(b, len(hashes), path, wc, t.PkgAPI.Len())
		}
	})
}

// benchAggSink keeps results live and sanity-checks that both paths did
// real, equal-shaped work.
func benchAggSink(b *testing.B, distinct int, path []metrics.PathPoint, wc float64, rows int) {
	b.Helper()
	if distinct == 0 || len(path) == 0 || rows == 0 || wc <= 0 {
		b.Fatalf("degenerate aggregation: distinct=%d path=%d rows=%d wc=%v",
			distinct, len(path), rows, wc)
	}
}

// TestAggregateReferenceAgreement pins the two benchmark sides to the
// same answers: the map-based reference implementations below must
// reproduce the live bitset results on the benchmark corpus. This is
// what makes the speedup ratio meaningful.
func TestAggregateReferenceAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 600-package benchmark corpus")
	}
	s, err := NewStudy(Config{Packages: 120, Installations: 100000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	in := s.Core().Input
	ref := refInputOf(in)

	refImp := refImportance(ref)
	liveImp := metrics.Importance(in)
	if len(refImp) != len(liveImp) {
		t.Fatalf("importance universe: ref %d APIs, live %d", len(refImp), len(liveImp))
	}
	for api, v := range refImp {
		lv, ok := liveImp[api]
		if !ok || math.Abs(lv-v) > 1e-9 {
			t.Fatalf("importance(%v): ref %v, live %v (ok=%v)", api, v, lv, ok)
		}
	}

	refPath := refGreedyPathAll(ref)
	livePath := metrics.GreedyPathAll(in)
	if len(refPath) != len(livePath) {
		t.Fatalf("greedy path: ref %d points, live %d", len(refPath), len(livePath))
	}
	for i := range refPath {
		if refPath[i].API != livePath[i].API {
			t.Fatalf("greedy path point %d: ref %v, live %v", i, refPath[i].API, livePath[i].API)
		}
		if math.Abs(refPath[i].Completeness-livePath[i].Completeness) > 1e-9 {
			t.Fatalf("greedy completeness at %d: ref %v, live %v",
				i, refPath[i].Completeness, livePath[i].Completeness)
		}
	}

	sup := make(footprint.Set)
	for _, pt := range refPath[:len(refPath)/2] {
		sup.Add(pt.API)
	}
	for _, opts := range []metrics.CompletenessOptions{
		{Kind: linuxapi.KindSyscall}, {AllKinds: true}, {Kind: linuxapi.KindIoctl},
	} {
		rv := refWeightedCompleteness(ref, sup, opts)
		lv := metrics.WeightedCompleteness(in, sup, opts)
		if math.Abs(rv-lv) > 1e-9 {
			t.Fatalf("weighted completeness %+v: ref %v, live %v", opts, rv, lv)
		}
	}

	// Distinct-footprint grouping: sha256-over-sorted-names and masked
	// bitset words must induce the same partition of the corpus.
	sysMask := footprint.KindMask(linuxapi.KindSyscall)
	byRef := make(map[string][]string)
	byLive := make(map[string][]string)
	for pkg, fp := range ref.Footprints {
		byRef[refFootprintHash(fp)] = append(byRef[refFootprintHash(fp)], pkg)
		k := in.Footprints[pkg].MaskedKey(sysMask)
		byLive[k] = append(byLive[k], pkg)
	}
	if len(byRef) != len(byLive) {
		t.Fatalf("distinct footprints: ref %d groups, live %d", len(byRef), len(byLive))
	}
	canon := func(groups map[string][]string) map[string]bool {
		out := make(map[string]bool, len(groups))
		for _, pkgs := range groups {
			sort.Strings(pkgs)
			key := ""
			for _, p := range pkgs {
				key += p + "\x00"
			}
			out[key] = true
		}
		return out
	}
	cr, cl := canon(byRef), canon(byLive)
	for g := range cr {
		if !cl[g] {
			t.Fatalf("footprint grouping diverges: ref group %q missing from live", g)
		}
	}

	refT := refRecord(store.NewDB(), ref)
	liveT := metrics.Record(store.NewDB(), in)
	if refT.PkgAPI.Len() != liveT.PkgAPI.Len() {
		t.Fatalf("pkg_api rows: ref %d, live %d", refT.PkgAPI.Len(), liveT.PkgAPI.Len())
	}
	for i := 0; i < refT.PkgAPI.Len(); i++ {
		if rr, lr := refT.PkgAPI.At(i), liveT.PkgAPI.At(i); rr != lr {
			t.Fatalf("pkg_api row %d: ref %+v, live %+v", i, rr, lr)
		}
	}
}

// --- Reference (pre-rewrite) implementations --------------------------

// refInput is the pre-rewrite map form of metrics.Input that the
// reference implementations consume, derived from the live bitsets.
type refInput struct {
	Repo       *apt.Repository
	Survey     *popcon.Survey
	Footprints map[string]footprint.Set
	Direct     map[string]footprint.Set
}

func refInputOf(in *metrics.Input) *refInput {
	ref := &refInput{
		Repo:       in.Repo,
		Survey:     in.Survey,
		Footprints: make(map[string]footprint.Set, len(in.Footprints)),
		Direct:     make(map[string]footprint.Set, len(in.Direct)),
	}
	for pkg, fp := range in.Footprints {
		ref.Footprints[pkg] = fp.ToSet()
	}
	for pkg, d := range in.Direct {
		ref.Direct[pkg] = d.ToSet()
	}
	return ref
}

func refClampProb(p float64) float64 {
	const eps = 1e-15
	if p >= 1 {
		return 1 - eps
	}
	if p < 0 {
		return 0
	}
	return p
}

func refQuantize(p float64) float64 { return math.Round(p*1e9) / 1e9 }

func refImportance(in *refInput) map[linuxapi.API]float64 {
	out := make(map[linuxapi.API]float64)
	for pkg, fp := range in.Footprints {
		frac := in.Survey.Fraction(pkg)
		if frac == 0 {
			continue
		}
		for api := range fp {
			out[api] += -math.Log1p(-refClampProb(frac))
		}
	}
	for api, nls := range out {
		out[api] = -math.Expm1(-nls)
	}
	for pkg, fp := range in.Footprints {
		if in.Survey.Fraction(pkg) == 0 {
			for api := range fp {
				if _, ok := out[api]; !ok {
					out[api] = 0
				}
			}
		}
	}
	return out
}

func refUnweighted(in *refInput) map[linuxapi.API]float64 {
	out := make(map[linuxapi.API]float64)
	total := len(in.Footprints)
	if total == 0 {
		return out
	}
	for _, fp := range in.Footprints {
		for api := range fp {
			out[api]++
		}
	}
	for api, n := range out {
		out[api] = n / float64(total)
	}
	return out
}

func refSubsetOK(fp, supported footprint.Set, opts metrics.CompletenessOptions) bool {
	for api := range fp {
		if !opts.AllKinds && api.Kind != opts.Kind {
			continue
		}
		if !supported.Contains(api) {
			return false
		}
	}
	return true
}

// refWeightedCompleteness sums in sorted package order, as the live
// metric does, so the two agree bit for bit.
func refWeightedCompleteness(in *refInput, supported footprint.Set, opts metrics.CompletenessOptions) float64 {
	okOwn := make(map[string]bool, len(in.Footprints))
	pkgs := make([]string, 0, len(in.Footprints))
	for pkg, fp := range in.Footprints {
		okOwn[pkg] = refSubsetOK(fp, supported, opts)
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
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

func refGreedyPathAll(in *refInput) []metrics.PathPoint {
	imp := refImportance(in)
	unw := refUnweighted(in)
	var apis []linuxapi.API
	for api := range imp {
		apis = append(apis, api)
	}
	sort.Slice(apis, func(i, j int) bool {
		a, b := apis[i], apis[j]
		if qa, qb := refQuantize(imp[a]), refQuantize(imp[b]); qa != qb {
			return qa > qb
		}
		if unw[a] != unw[b] {
			return unw[a] > unw[b]
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Kind < b.Kind
	})
	rank := make(map[linuxapi.API]int, len(apis))
	for i, api := range apis {
		rank[api] = i + 1
	}
	demand := make(map[string]int, len(in.Footprints))
	for pkg, fp := range in.Footprints {
		d := 0
		for api := range fp {
			if r := rank[api]; r > d {
				d = r
			}
		}
		demand[pkg] = d
	}
	effective := make(map[string]int, len(demand))
	for pkg := range demand {
		d := demand[pkg]
		if in.Repo != nil {
			for _, dep := range in.Repo.DependencyClosure(pkg) {
				if dd, ok := demand[dep]; ok && dd > d {
					d = dd
				}
			}
		}
		effective[pkg] = d
	}
	massAt := make([]float64, len(apis)+1)
	var total float64
	for pkg, d := range effective {
		w := in.Survey.Fraction(pkg)
		total += w
		massAt[d] += w
	}
	out := make([]metrics.PathPoint, len(apis))
	cum := massAt[0]
	for i, api := range apis {
		cum += massAt[i+1]
		wc := 0.0
		if total > 0 {
			wc = cum / total
		}
		out[i] = metrics.PathPoint{N: i + 1, API: api, Importance: imp[api], Completeness: wc}
	}
	return out
}

func refFootprintHash(fp footprint.Set) string {
	var names []string
	for api := range fp {
		if api.Kind == linuxapi.KindSyscall {
			names = append(names, api.Name)
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return string(h.Sum(nil))
}

func refRecord(db *store.DB, in *refInput) *metrics.Tables {
	t := &metrics.Tables{
		PkgAPI:     store.NewTable[metrics.PkgAPIRow](db, "pkg_api"),
		PkgInstall: store.NewTable[metrics.PkgInstallRow](db, "pkg_install"),
		PkgDep:     store.NewTable[metrics.PkgDepRow](db, "pkg_dep"),
	}
	t.ByAPI = store.NewIndex(t.PkgAPI, func(r metrics.PkgAPIRow) string { return r.API.String() })
	t.ByPkg = store.NewIndex(t.PkgAPI, func(r metrics.PkgAPIRow) string { return r.Pkg })
	pkgs := make([]string, 0, len(in.Footprints))
	total := 0
	for pkg, fp := range in.Footprints {
		pkgs = append(pkgs, pkg)
		total += len(fp)
	}
	sort.Strings(pkgs)
	apiRows := make([]metrics.PkgAPIRow, 0, total)
	installRows := make([]metrics.PkgInstallRow, 0, len(pkgs))
	var depRows []metrics.PkgDepRow
	for _, pkg := range pkgs {
		direct := in.Direct[pkg]
		for _, api := range in.Footprints[pkg].Sorted() {
			apiRows = append(apiRows, metrics.PkgAPIRow{Pkg: pkg, API: api, Direct: direct.Contains(api)})
		}
		installRows = append(installRows, metrics.PkgInstallRow{Pkg: pkg, Installs: in.Survey.Installs(pkg)})
		if in.Repo != nil {
			if p := in.Repo.Get(pkg); p != nil {
				for _, dep := range p.Depends {
					depRows = append(depRows, metrics.PkgDepRow{Pkg: pkg, Dep: dep})
				}
			}
		}
	}
	t.PkgAPI.InsertBatch(apiRows)
	t.PkgInstall.InsertBatch(installRows)
	t.PkgDep.InsertBatch(depRows)
	return t
}
