// Package compat evaluates partially-compatible Linux systems and libc
// variants with the weighted-completeness metric, reproducing Section 4 of
// the paper: Table 6 (User-Mode-Linux, L4Linux, the FreeBSD emulation
// layer, and the Graphene library OS) and Table 7 (eglibc, uClibc, musl,
// dietlibc against GNU libc), plus §3.5's stripped-libc space analysis.
//
// The original systems' sources are not part of this repository; each
// target is modeled as the API set the paper describes — the published
// syscall counts and the named gaps — applied to the measured importance
// ranking of the corpus under study.
package compat

import (
	"sort"
	"strings"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// System models one Linux-compatible system or emulation layer.
type System struct {
	// Name and Version label the row of Table 6.
	Name, Version string
	// Total is the published number of implemented system calls.
	Total int
	// Extra is how many of those are low-importance calls from the deep
	// end of the ranking (they count toward the total without moving the
	// completeness needle); the rest are the head of the ranking.
	Extra int
	// MissingNamed lists the specific calls the paper calls out as absent.
	MissingNamed []string
	// PaperCompleteness is the weighted completeness the paper reports.
	PaperCompleteness float64
}

// Systems reproduces Table 6's four targets. Counts and named gaps follow
// the paper; each set is the head of the measured importance ranking minus
// the named gaps, padded with deep-tail calls to the published total.
var Systems = []System{
	{
		Name: "User-Mode-Linux", Version: "3.19",
		Total: 284,
		MissingNamed: []string{"name_to_handle_at", "iopl", "ioperm",
			"perf_event_open"},
		PaperCompleteness: 0.931,
	},
	{
		Name: "L4Linux", Version: "4.3",
		Total:             286,
		MissingNamed:      []string{"quotactl", "migrate_pages", "kexec_load"},
		PaperCompleteness: 0.993,
	},
	{
		Name: "FreeBSD-emu", Version: "10.2",
		Total: 225,
		MissingNamed: []string{"inotify_init", "inotify_add_watch",
			"inotify_rm_watch", "splice", "tee", "vmsplice", "umount2",
			"timerfd_create", "timerfd_settime", "timerfd_gettime"},
		PaperCompleteness: 0.623,
	},
	{
		Name: "Graphene", Version: "",
		Total: 143, Extra: 20,
		MissingNamed:      []string{"sched_setscheduler", "sched_setparam"},
		PaperCompleteness: 0.0042,
	},
}

// GrapheneFixed is Table 6's final row: Graphene after adding the two
// scheduling system calls (the paper measures 21.1%).
var GrapheneFixed = System{
	Name: "Graphene", Version: "+sched",
	Total: 145, Extra: 20,
	PaperCompleteness: 0.211,
}

// SystemByName resolves a Table 6 target by name, case-insensitively.
// "graphene" is the as-shipped row; "graphene+sched" selects the
// after-fix row (GrapheneFixed).
func SystemByName(name string) (System, bool) {
	n := strings.ToLower(strings.TrimSpace(name))
	if n == strings.ToLower(GrapheneFixed.Name+GrapheneFixed.Version) {
		return GrapheneFixed, true
	}
	for _, sys := range Systems {
		if strings.ToLower(sys.Name) == n {
			return sys, true
		}
	}
	return System{}, false
}

// Result is one evaluated row of Table 6.
type Result struct {
	System System
	// Supported is the number of system calls in the modeled set.
	Supported int
	// Completeness is the measured weighted completeness.
	Completeness float64
	// Suggested lists the most important missing calls — the "APIs to
	// add" column.
	Suggested []string
}

// SupportedSet builds the system's syscall API set against a measured
// greedy path: the head of the ranking minus the named gaps, padded from
// the deep end with Extra low-importance calls until the published total.
func SupportedSet(sys System, path []metrics.PathPoint) footprint.Set {
	missing := make(map[string]bool, len(sys.MissingNamed))
	for _, m := range sys.MissingNamed {
		missing[m] = true
	}
	set := make(footprint.Set)
	head := sys.Total - sys.Extra
	for i := 0; i < len(path) && len(set) < head; i++ {
		if missing[path[i].API.Name] {
			continue
		}
		set.Add(path[i].API)
	}
	for i := len(path) - 1; i >= 0 && len(set) < sys.Total; i-- {
		if missing[path[i].API.Name] || set.Contains(path[i].API) {
			continue
		}
		set.Add(path[i].API)
	}
	return set
}

// Evaluate measures one system against the study input.
func Evaluate(sys System, in *metrics.Input, path []metrics.PathPoint) Result {
	set := SupportedSet(sys, path)
	wc := metrics.WeightedCompleteness(in, set,
		metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
	res := Result{System: sys, Supported: len(set), Completeness: wc}
	for _, pt := range path {
		if len(res.Suggested) >= 5 {
			break
		}
		if !set.Contains(pt.API) {
			res.Suggested = append(res.Suggested, pt.API.Name)
		}
	}
	return res
}

// EvaluateAll runs Table 6 (including the Graphene-after-fix row).
func EvaluateAll(in *metrics.Input, path []metrics.PathPoint) []Result {
	out := make([]Result, 0, len(Systems)+1)
	for _, sys := range Systems {
		out = append(out, Evaluate(sys, in, path))
	}
	out = append(out, Evaluate(GrapheneFixed, in, path))
	return out
}

// LibcVariant models one C library for Table 7.
type LibcVariant struct {
	Name, Version string
	// PaperRaw / PaperNormalized are the paper's two completeness columns.
	PaperRaw, PaperNormalized float64
	// exports computes the variant's exported-symbol set from the GNU
	// list and a measured importance map.
	exports func(imp map[linuxapi.API]float64) map[string]bool
}

func allGNU() map[string]bool {
	m := make(map[string]bool, len(linuxapi.GNULibcExports))
	for _, s := range linuxapi.GNULibcExports {
		m[s] = true
	}
	return m
}

func isChk(s string) bool {
	return strings.HasPrefix(s, "__") &&
		(strings.HasSuffix(s, "_chk") || strings.HasPrefix(s, "__isoc99_"))
}

// Variants reproduces Table 7's four rows.
var Variants = []LibcVariant{
	{
		Name: "eglibc", Version: "2.19",
		PaperRaw: 1.0, PaperNormalized: 1.0,
		exports: func(map[linuxapi.API]float64) map[string]bool {
			return allGNU() // a drop-in fork: every GNU symbol present
		},
	},
	{
		Name: "uClibc", Version: "0.9.33",
		PaperRaw: 0.011, PaperNormalized: 0.419,
		exports: func(imp map[linuxapi.API]float64) map[string]bool {
			m := allGNU()
			for s := range m {
				// No fortified/ISO-C99 compile-time wrappers, no glibc
				// stdio internals, and none of the rarely-used tail.
				if isChk(s) || s == "__uflow" || s == "__overflow" ||
					strings.HasPrefix(s, "_IO_") ||
					imp[linuxapi.LibcSym(s)] < 0.10 {
					delete(m, s)
				}
			}
			return m
		},
	},
	{
		Name: "musl", Version: "1.1.14",
		PaperRaw: 0.011, PaperNormalized: 0.432,
		exports: func(imp map[linuxapi.API]float64) map[string]bool {
			m := allGNU()
			for s := range m {
				if isChk(s) || s == "secure_getenv" || s == "random_r" ||
					s == "__uflow" || s == "__overflow" ||
					strings.HasPrefix(s, "_IO_") ||
					strings.HasPrefix(s, "__nldbl_") ||
					imp[linuxapi.LibcSym(s)] < 0.09 {
					delete(m, s)
				}
			}
			return m
		},
	},
	{
		Name: "dietlibc", Version: "0.33",
		PaperRaw: 0.0, PaperNormalized: 0.0,
		exports: func(imp map[linuxapi.API]float64) map[string]bool {
			// dietlibc's startup ABI is incompatible with glibc-linked
			// binaries (no __libc_start_main, no memalign, no
			// __cxa_finalize); nothing dynamic runs.
			m := make(map[string]bool)
			for _, s := range linuxapi.GNULibcExports {
				if imp[linuxapi.LibcSym(s)] >= 0.95 {
					m[s] = true
				}
			}
			delete(m, "__libc_start_main")
			delete(m, "memalign")
			delete(m, "__cxa_finalize")
			return m
		},
	},
}

// LibcResult is one evaluated row of Table 7.
type LibcResult struct {
	Variant LibcVariant
	// Exported is the number of GNU symbols the variant provides.
	Exported int
	// Raw is completeness on exact symbol matching; Normalized reverses
	// the compile-time API replacement first (§4.2).
	Raw, Normalized float64
	// MissingSamples lists a few unsupported symbols.
	MissingSamples []string
}

// EvaluateLibc measures one variant.
func EvaluateLibc(v LibcVariant, in *metrics.Input, imp map[linuxapi.API]float64) LibcResult {
	exports := v.exports(imp)
	raw := make(footprint.Set)
	norm := make(footprint.Set)
	for s := range exports {
		raw.Add(linuxapi.LibcSym(s))
		norm.Add(linuxapi.LibcSym(linuxapi.NormalizeLibcSymbol(s)))
	}
	// Normalized evaluation replaces each package's fortified imports with
	// the plain symbol before the subset test.
	normIn := &metrics.Input{
		Repo:       in.Repo,
		Survey:     in.Survey,
		Footprints: make(map[string]*footprint.BitSet, len(in.Footprints)),
	}
	apis := linuxapi.InternedAPIs()
	for pkg, fp := range in.Footprints {
		nfp := footprint.NewBitSet()
		fp.ForEach(func(id uint32) {
			if api := apis[id]; api.Kind == linuxapi.KindLibcSym {
				nfp.AddAPI(linuxapi.LibcSym(linuxapi.NormalizeLibcSymbol(api.Name)))
			} else {
				nfp.AddID(id)
			}
		})
		normIn.Footprints[pkg] = nfp
	}
	opts := metrics.CompletenessOptions{Kind: linuxapi.KindLibcSym}
	res := LibcResult{
		Variant:    v,
		Exported:   len(exports),
		Raw:        metrics.WeightedCompleteness(in, raw, opts),
		Normalized: metrics.WeightedCompleteness(normIn, norm, opts),
	}
	for _, s := range linuxapi.GNULibcExports {
		if len(res.MissingSamples) >= 4 {
			break
		}
		if !exports[s] && imp[linuxapi.LibcSym(s)] > 0.5 {
			res.MissingSamples = append(res.MissingSamples, s)
		}
	}
	return res
}

// EvaluateAllLibc runs Table 7.
func EvaluateAllLibc(in *metrics.Input, imp map[linuxapi.API]float64) []LibcResult {
	out := make([]LibcResult, 0, len(Variants))
	for _, v := range Variants {
		out = append(out, EvaluateLibc(v, in, imp))
	}
	return out
}

// StrippedLibc is §3.5's restructuring estimate: drop every libc export
// whose importance falls below the threshold and measure what remains.
type StrippedLibc struct {
	Threshold float64
	// Kept is the number of retained symbols (paper: 889 at 90%).
	Kept int
	// SizeFraction is the retained fraction of .text bytes (paper: 63%).
	SizeFraction float64
	// Completeness is the probability a package needs no removed symbol
	// (paper: 90.7%).
	Completeness float64
	// RelocationBytes counts the Rela entries the full table occupies
	// (paper: 30,576 bytes for 1,274 entries).
	RelocationBytes int
}

// AnalyzeStrippedLibc computes the stripped-libc row from measured
// importance and the generated libc's symbol sizes.
func AnalyzeStrippedLibc(in *metrics.Input, imp map[linuxapi.API]float64,
	symSizes map[string]uint64, threshold float64) StrippedLibc {

	kept := make(footprint.Set)
	var keptBytes, totalBytes uint64
	for _, s := range linuxapi.GNULibcExports {
		size := symSizes[s]
		totalBytes += size
		if imp[linuxapi.LibcSym(s)] >= threshold {
			kept.Add(linuxapi.LibcSym(s))
			keptBytes += size
		}
	}
	out := StrippedLibc{
		Threshold:       threshold,
		Kept:            len(kept),
		RelocationBytes: len(linuxapi.GNULibcExports) * linuxapi.RelaEntrySize,
	}
	if totalBytes > 0 {
		out.SizeFraction = float64(keptBytes) / float64(totalBytes)
	}
	out.Completeness = metrics.WeightedCompleteness(in, kept,
		metrics.CompletenessOptions{Kind: linuxapi.KindLibcSym})
	return out
}

// SortedBySize returns symbol names ordered by descending size, a helper
// for the §3.5 relocation-reordering discussion.
func SortedBySize(symSizes map[string]uint64) []string {
	out := make([]string, 0, len(symSizes))
	for s := range symSizes {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if symSizes[out[i]] != symSizes[out[j]] {
			return symSizes[out[i]] > symSizes[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
