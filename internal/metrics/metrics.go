// Package metrics implements the paper's two contributed metrics and their
// derivatives. API importance (§2.1, Appendix A.1) is the probability that
// a random installation includes at least one package requiring a given
// API. Weighted completeness (§2.2, Appendix A.2) is the expected fraction
// of a typical installation's packages that a target system supports, with
// unsupported status propagated through package dependencies. Unweighted
// API importance (§5) drops the installation weighting to expose developer
// behaviour. The greedy most-important-first ordering yields the paper's
// "optimal path" for adding system calls to a prototype (§3.2, Figure 3,
// Table 4).
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/apt"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/popcon"
	"repro/internal/store"
)

// Input bundles the measured corpus: package metadata, installation
// statistics, and per-package API footprints as dense bitsets.
type Input struct {
	Repo   *apt.Repository
	Survey *popcon.Survey
	// Footprints maps package name to its aggregated API footprint (the
	// union over the package's executables, §2).
	Footprints map[string]*footprint.BitSet
	// Direct maps package name to the APIs its own binaries' code requests
	// without going through a library — used for the library/package
	// attribution tables (Tables 1, 2, 5).
	Direct map[string]*footprint.BitSet

	colsOnce sync.Once
	cols     columns
	closOnce sync.Once
	// closure holds, per column, the columns of the package's
	// DependencyClosure (itself included, packages outside Footprints
	// dropped): the relation §7 materialized with recursive SQL.
	closure [][]int32
}

// columns is the dense form every metric computes over: packages in
// sorted order with their footprints and weights alongside. Derived
// once per Input.
type columns struct {
	pkgs   []string
	bits   []*footprint.BitSet
	direct []*footprint.BitSet // nil entries: package has no direct data
	// weight is each package's installation fraction, and total their
	// sum in package order: every metric's summation order.
	weight []float64
	total  float64
	// cap bounds every member ID across bits, so per-API accumulators
	// can be flat arrays.
	cap int
}

func (in *Input) columns() *columns {
	in.colsOnce.Do(func() {
		c := &in.cols
		c.pkgs = make([]string, 0, len(in.Footprints))
		for pkg := range in.Footprints {
			c.pkgs = append(c.pkgs, pkg)
		}
		sort.Strings(c.pkgs)
		c.bits = make([]*footprint.BitSet, len(c.pkgs))
		c.direct = make([]*footprint.BitSet, len(c.pkgs))
		c.weight = make([]float64, len(c.pkgs))
		for i, pkg := range c.pkgs {
			b := in.Footprints[pkg]
			if b == nil {
				b = footprint.NewBitSet()
			}
			c.bits[i] = b
			if cap := b.Cap(); cap > c.cap {
				c.cap = cap
			}
			c.direct[i] = in.Direct[pkg]
			c.weight[i] = in.Survey.Fraction(pkg)
			c.total += c.weight[i]
		}
	})
	return &in.cols
}

// closures returns the closure index, built on first use.
func (in *Input) closures() [][]int32 {
	in.closOnce.Do(func() {
		c := in.columns()
		in.closure = make([][]int32, len(c.pkgs))
		if in.Repo == nil {
			return
		}
		col := make(map[string]int32, len(c.pkgs))
		for i, pkg := range c.pkgs {
			col[pkg] = int32(i)
		}
		for i, pkg := range c.pkgs {
			for _, dep := range in.Repo.DependencyClosure(pkg) {
				if j, ok := col[dep]; ok {
					in.closure[i] = append(in.closure[i], j)
				}
			}
		}
	})
	return in.closure
}

// propagate is §2.2 step 3 over per-package levels, the point at which
// each package's own footprint is satisfied: a package rises to the
// latest level in its dependency closure. One that weighs nothing counts
// toward no point, and one already at top, the highest level there is,
// cannot rise, so neither walks its closure.
func (in *Input) propagate(level []int, top int) []int {
	weight, closure := in.columns().weight, in.closures()
	out := make([]int, len(level))
	for i, l := range level {
		if weight[i] != 0 && l != top {
			for _, j := range closure[i] {
				l = max(l, level[j])
			}
		}
		out[i] = l
	}
	return out
}

// Universe returns every API appearing in any footprint.
func (in *Input) Universe() []linuxapi.API {
	c := in.columns()
	u := footprint.NewBitSet()
	for _, b := range c.bits {
		u.UnionWith(b)
	}
	return u.SortedAPIs()
}

// UsersOf returns the packages whose footprint contains api, sorted by
// descending installation count.
func (in *Input) UsersOf(api linuxapi.API) []string {
	c := in.columns()
	id, ok := linuxapi.InternedID(api)
	if !ok {
		return nil
	}
	var out []string
	for i, b := range c.bits {
		if b.HasID(id) {
			out = append(out, c.pkgs[i])
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := in.Survey.Installs(out[i]), in.Survey.Installs(out[j])
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// DirectUsersOf returns the packages whose own code (not a library they
// link) requests api.
func (in *Input) DirectUsersOf(api linuxapi.API) []string {
	c := in.columns()
	id, ok := linuxapi.InternedID(api)
	if !ok {
		return nil
	}
	var out []string
	for i, d := range c.direct {
		if d != nil && d.HasID(id) {
			out = append(out, c.pkgs[i])
		}
	}
	sort.Strings(out)
	return out
}

// Importance computes API importance for every API in the universe:
//
//	Importance(api) = 1 - Π_{pkg ∈ Dependents(api)} (1 - Pr{pkg installed})
//
// assuming independent package installation, exactly as Appendix A.1.
func Importance(in *Input) map[linuxapi.API]float64 {
	c := in.columns()
	// Accumulate log-survival per dense API ID to avoid underflow with
	// many packages; seen tracks universe membership so APIs used only
	// by never-installed packages still exist with zero importance.
	acc := make([]float64, c.cap)
	seen := make([]bool, c.cap)
	for i, b := range c.bits {
		frac := c.weight[i]
		if frac == 0 {
			b.ForEach(func(id uint32) { seen[id] = true })
			continue
		}
		nls := -math.Log1p(-clampProb(frac))
		b.ForEach(func(id uint32) {
			seen[id] = true
			acc[id] += nls
		})
	}
	apis := linuxapi.InternedAPIs()
	out := make(map[linuxapi.API]float64)
	for id, ok := range seen {
		if !ok {
			continue
		}
		v := 0.0
		if acc[id] != 0 {
			v = -math.Expm1(-acc[id])
		}
		out[apis[id]] = v
	}
	return out
}

// quantize rounds a probability to nine decimal places for ordering, so
// that float-level noise between "installed everywhere through one
// essential package" (1 - 1e-15) and "saturated by volume" (rounds to
// exactly 1.0) does not decide greedy-path positions.
func quantize(p float64) float64 { return math.Round(p*1e9) / 1e9 }

func clampProb(p float64) float64 {
	// A package on every installation would zero the survival product;
	// keep the log finite while preserving importance ≈ 1.
	const eps = 1e-15
	if p >= 1 {
		return 1 - eps
	}
	if p < 0 {
		return 0
	}
	return p
}

// Unweighted computes unweighted API importance: the fraction of packages
// (with footprints) whose footprint contains the API, irrespective of
// installation counts (§5).
func Unweighted(in *Input) map[linuxapi.API]float64 {
	out := make(map[linuxapi.API]float64)
	c := in.columns()
	total := len(in.Footprints)
	if total == 0 {
		return out
	}
	counts := make([]int, c.cap)
	for _, b := range c.bits {
		b.ForEach(func(id uint32) { counts[id]++ })
	}
	apis := linuxapi.InternedAPIs()
	for id, n := range counts {
		if n > 0 {
			out[apis[id]] = float64(n) / float64(total)
		}
	}
	return out
}

// FilterKind restricts a footprint to one API kind.
func FilterKind(fp footprint.Set, kind linuxapi.Kind) footprint.Set {
	out := make(footprint.Set)
	for api := range fp {
		if api.Kind == kind {
			out.Add(api)
		}
	}
	return out
}

// CompletenessOptions tune the weighted-completeness computation.
type CompletenessOptions struct {
	// Kind restricts the evaluation to one API namespace; packages are
	// judged only on the APIs of that kind in their footprints. Use
	// KindAll to judge on the full footprint.
	Kind linuxapi.Kind
	// AllKinds judges on the entire footprint regardless of Kind.
	AllKinds bool
	// NoDependencyPropagation disables §2.2 step 3 (ablation knob): a
	// supported package depending on an unsupported one normally becomes
	// unsupported itself.
	NoDependencyPropagation bool
	// Waivable maps package name to APIs that may be missing from the
	// supported set without making the package unsupported — the
	// stub-aware relaxation: an API the package's emulated binaries all
	// tolerate as a stub (-ENOSYS) or a fake costs the target a stub,
	// not an implementation. Packages absent from the map (or mapped to
	// nil) are judged presence-only, so the metric is conservative
	// wherever emulation produced no verdicts.
	Waivable map[string]footprint.Set
}

// WeightedCompleteness computes the paper's system-wide metric for a target
// system described by its supported-API set:
//
//	WC = Σ_{pkg supported} Pr{pkg} / Σ_{pkg} Pr{pkg}
//
// A package is supported when its (kind-filtered) footprint is a subset of
// the supported set and, unless disabled, every package in its dependency
// closure is supported too. It is point 0 of a CompletenessCurve.
func WeightedCompleteness(in *Input, supported footprint.Set, opts CompletenessOptions) float64 {
	return CompletenessCurve(in, supported, nil, opts)[0]
}

// CompletenessCurve is weighted completeness along a growing supported
// set: point k is WeightedCompleteness(in, supported ∪ order[:k], opts),
// for k = 0..len(order).
//
// Rather than one full pass per point, each package gets a demand level
// once: the point at which order lands its last missing API (after the
// kind mask and its waivers), or never. Dependency propagation takes the
// max over the package's closure. Each point then re-sums, in sorted
// package order, the weights at or below it. It re-sums instead of
// accumulating per-level mass because float addition is not
// associative: re-summing makes every point round exactly as a curve
// with an empty order, which is WeightedCompleteness itself.
func CompletenessCurve(in *Input, supported footprint.Set, order []linuxapi.API, opts CompletenessOptions) []float64 {
	c := in.columns()
	never := len(order) + 1
	// landing maps an intern ID to the 1-based position where order first
	// adds it; 0 means order never does. An ID at or beyond c.cap is in
	// no footprint, and neither is an API that was never interned. An
	// empty order lands nothing and needs no array.
	var landing []int
	if len(order) > 0 {
		landing = make([]int, c.cap)
	}
	for i, api := range order {
		if id, ok := linuxapi.InternedID(api); ok && int(id) < len(landing) && landing[id] == 0 {
			landing[id] = i + 1
		}
	}
	// Lookup-only conversion: a supported API that was never interned
	// cannot be in any footprint, so dropping it changes no subset test
	// — and keeps untrusted query inputs from growing the intern table.
	sup := footprint.LookupBits(supported)
	var mask *footprint.BitSet
	if !opts.AllKinds {
		mask = footprint.KindMask(opts.Kind)
	}
	level := make([]int, len(c.pkgs))
	for i, pkg := range c.pkgs {
		var waiver *footprint.BitSet
		if w := opts.Waivable[pkg]; w != nil {
			waiver = footprint.LookupBits(w)
		}
		level[i] = demandLevel(c.bits[i], sup, mask, waiver, landing, never)
	}
	if !opts.NoDependencyPropagation {
		level = in.propagate(level, never)
	}

	out := make([]float64, len(order)+1)
	if c.total == 0 {
		return out
	}
	for k := range out {
		var num float64
		for i, l := range level {
			if c.weight[i] != 0 && l <= k {
				num += c.weight[i]
			}
		}
		out[k] = num / c.total
	}
	return out
}

// demandLevel is the point at which a package's footprint stops missing
// APIs: the latest landing among the bits of fp∧mask outside supported
// and waiver (a nil mask filters nothing, a nil waiver waives nothing),
// 0 when none is missing, never when one of them never lands (an ID
// beyond landing never does).
func demandLevel(fp, supported, mask, waiver *footprint.BitSet, landing []int, never int) int {
	sw := supported.Words()
	var mw, ww []uint64
	if mask != nil {
		mw = mask.Words()
	}
	if waiver != nil {
		ww = waiver.Words()
	}
	d := 0
	for i, w := range fp.Words() {
		if mask != nil {
			if i >= len(mw) {
				break
			}
			w &= mw[i]
		}
		if i < len(sw) {
			w &^= sw[i]
		}
		if i < len(ww) {
			w &^= ww[i]
		}
		for ; w != 0; w &= w - 1 {
			id := i<<6 + bits.TrailingZeros64(w)
			if id >= len(landing) || landing[id] == 0 {
				return never
			}
			d = max(d, landing[id])
		}
	}
	return d
}

// PathPoint is one step of the greedy API-addition path.
type PathPoint struct {
	// N is the number of APIs supported after this step (1-based).
	N int
	// API is the API added at this step.
	API linuxapi.API
	// Importance is the API's importance (the ordering key).
	Importance float64
	// Completeness is the weighted completeness achieved with the first N
	// APIs supported.
	Completeness float64
}

// GreedyPath ranks the APIs of one kind by descending importance and
// computes the cumulative weighted completeness after each addition —
// Figure 3's curve. Ties break by unweighted importance then name, which
// keeps the ordering stable and sensible for the 100%-importance plateau.
func GreedyPath(in *Input, kind linuxapi.Kind) []PathPoint {
	return greedyPath(in, func(api linuxapi.API) bool { return api.Kind == kind })
}

// GreedyPathAll ranks every measured API — system calls, vectored opcodes,
// pseudo-files and libc symbols together — realizing §3.2's remark that
// "one can construct a similar path including other APIs, such as vectored
// system calls, pseudo-files and library APIs".
func GreedyPathAll(in *Input) []PathPoint {
	return greedyPath(in, func(linuxapi.API) bool { return true })
}

func greedyPath(in *Input, include func(linuxapi.API) bool) []PathPoint {
	imp := Importance(in)
	unw := Unweighted(in)
	var apis []linuxapi.API
	for api := range imp {
		if include(api) {
			apis = append(apis, api)
		}
	}
	sort.Slice(apis, func(i, j int) bool {
		a, b := apis[i], apis[j]
		if qa, qb := quantize(imp[a]), quantize(imp[b]); qa != qb {
			return qa > qb
		}
		if unw[a] != unw[b] {
			return unw[a] > unw[b]
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		// Same name across kinds (a syscall and its libc wrapper can tie
		// exactly); without this the comparator is not a total order and
		// the all-kinds path depends on map iteration order.
		return a.Kind < b.Kind
	})

	c := in.columns()
	// rankByID maps dense API IDs to 1-based greedy ranks; IDs outside
	// the included set stay 0, so the demand scan needs no filter.
	rankByID := make([]int, c.cap)
	for i, api := range apis {
		if id, ok := linuxapi.InternedID(api); ok && int(id) < len(rankByID) {
			rankByID[id] = i + 1
		}
	}

	// A package's demand is the highest rank in its filtered footprint;
	// propagation lifts it to the highest in its dependency closure.
	demand := make([]int, len(c.pkgs))
	for i, b := range c.bits {
		b.ForEach(func(id uint32) { demand[i] = max(demand[i], rankByID[id]) })
	}
	demand = in.propagate(demand, len(apis))

	// Weight mass per demand level, accumulated in sorted package order:
	// float addition is not associative, so any other order would change
	// the curve's low bits (and /v1/path's bytes).
	massAt := make([]float64, len(apis)+1)
	for i, d := range demand {
		massAt[d] += c.weight[i]
	}

	out := make([]PathPoint, len(apis))
	cum := massAt[0]
	for i, api := range apis {
		cum += massAt[i+1]
		wc := 0.0
		if c.total > 0 {
			wc = cum / c.total
		}
		out[i] = PathPoint{N: i + 1, API: api, Importance: imp[api], Completeness: wc}
	}
	return out
}

// Stage summarizes one implementation phase of Table 4.
type Stage struct {
	// Label is the roman-numeral stage name.
	Label string
	// FirstN and LastN are the 1-based rank range of APIs in this stage.
	FirstN, LastN int
	// Added is the number of APIs added in this stage.
	Added int
	// Completeness is the weighted completeness after the stage.
	Completeness float64
	// Samples are representative APIs added in the stage.
	Samples []linuxapi.API
}

// Stages cuts a greedy path at the given boundaries (e.g. 40, 81, 145,
// 202 and the path end), reproducing Table 4's five phases.
func Stages(path []PathPoint, boundaries []int, sampleCount int) []Stage {
	labels := []string{"I", "II", "III", "IV", "V", "VI", "VII", "VIII"}
	var out []Stage
	prev := 0
	cut := append(append([]int(nil), boundaries...), len(path))
	for i, b := range cut {
		if b > len(path) {
			b = len(path)
		}
		if b <= prev {
			continue
		}
		st := Stage{
			Label:  labels[min(i, len(labels)-1)],
			FirstN: prev + 1,
			LastN:  b,
			Added:  b - prev,
		}
		st.Completeness = path[b-1].Completeness
		for j := prev; j < b && len(st.Samples) < sampleCount; j++ {
			st.Samples = append(st.Samples, path[j].API)
		}
		out = append(out, st)
		prev = b
	}
	return out
}

// Curve sorts importance values for one kind in descending order — the
// inverted-CDF shape of Figures 2, 4, 5, 6, 7 and 8. The returned names
// parallel the values.
func Curve(values map[linuxapi.API]float64, kind linuxapi.Kind) (apis []linuxapi.API, imp []float64) {
	for api := range values {
		if api.Kind == kind {
			apis = append(apis, api)
		}
	}
	sort.Slice(apis, func(i, j int) bool {
		a, b := apis[i], apis[j]
		if qa, qb := quantize(values[a]), quantize(values[b]); qa != qb {
			return qa > qb
		}
		return a.Name < b.Name
	})
	imp = make([]float64, len(apis))
	for i, api := range apis {
		imp[i] = values[api]
	}
	return apis, imp
}

// CountAbove returns how many curve values are ≥ threshold.
func CountAbove(imp []float64, threshold float64) int {
	n := 0
	for _, v := range imp {
		if v >= threshold {
			n++
		}
	}
	return n
}

// Tables are the relations Record loads into an embedded store DB, the
// way the paper's pipeline mirrored its measurements into PostgreSQL
// (§7). The metrics themselves compute over the bitset columns.
type Tables struct {
	PkgAPI     *store.Table[PkgAPIRow]
	PkgInstall *store.Table[PkgInstallRow]
	PkgDep     *store.Table[PkgDepRow]
	ByAPI      *store.Index[PkgAPIRow]
	ByPkg      *store.Index[PkgAPIRow]
}

// PkgAPIRow relates a package to one API in its footprint.
type PkgAPIRow struct {
	Pkg    string
	API    linuxapi.API
	Direct bool
}

// PkgInstallRow carries a package's installation count.
type PkgInstallRow struct {
	Pkg      string
	Installs int64
}

// PkgDepRow is one dependency edge.
type PkgDepRow struct {
	Pkg, Dep string
}

// Record populates a DB from the input.
func Record(db *store.DB, in *Input) *Tables {
	t := &Tables{
		PkgAPI:     store.NewTable[PkgAPIRow](db, "pkg_api"),
		PkgInstall: store.NewTable[PkgInstallRow](db, "pkg_install"),
		PkgDep:     store.NewTable[PkgDepRow](db, "pkg_dep"),
	}
	t.ByAPI = store.NewIndex(t.PkgAPI, func(r PkgAPIRow) string { return r.API.String() })
	t.ByPkg = store.NewIndex(t.PkgAPI, func(r PkgAPIRow) string { return r.Pkg })
	c := in.columns()
	apis := linuxapi.InternedAPIs()
	total := 0
	for _, b := range c.bits {
		total += b.Count()
	}
	// Bulk-load each relation: every (re)load repopulates the tables from
	// scratch, so rows are staged per package and inserted batch-wise.
	apiRows := make([]PkgAPIRow, 0, total)
	installRows := make([]PkgInstallRow, 0, len(c.pkgs))
	var depRows []PkgDepRow
	for i, pkg := range c.pkgs {
		direct := c.direct[i]
		for _, id := range c.bits[i].SortedIDs() {
			apiRows = append(apiRows, PkgAPIRow{
				Pkg:    pkg,
				API:    apis[id],
				Direct: direct != nil && direct.HasID(id),
			})
		}
		installRows = append(installRows, PkgInstallRow{Pkg: pkg, Installs: in.Survey.Installs(pkg)})
		if in.Repo != nil {
			if p := in.Repo.Get(pkg); p != nil {
				for _, dep := range p.Depends {
					depRows = append(depRows, PkgDepRow{Pkg: pkg, Dep: dep})
				}
			}
		}
	}
	t.PkgAPI.InsertBatch(apiRows)
	t.PkgInstall.InsertBatch(installRows)
	t.PkgDep.InsertBatch(depRows)
	return t
}

// RecordStats counts what Record would load into a fresh DB — the
// relations and their total rows (footprint members, packages and
// dependency edges) — without building the tables. Table 12 reports it.
func RecordStats(in *Input) (tables, rows int) {
	c := in.columns()
	for i, pkg := range c.pkgs {
		rows += c.bits[i].Count() + 1
		if in.Repo != nil {
			if p := in.Repo.Get(pkg); p != nil {
				rows += len(p.Depends)
			}
		}
	}
	return 3, rows
}
