// Package report regenerates every table and figure of the paper's
// evaluation from an analyzed study: the classification census (Figure 1),
// the importance curves (Figures 2, 4, 5, 6, 7, 8), the incremental
// implementation path (Figure 3, Table 4), the named-API tables (1, 2, 3,
// 5, 8, 9, 10, 11), the compatibility evaluations (Tables 6, 7), and the
// framework statistics (Table 12). Renderers emit fixed-width text so the
// rows can be compared to the paper side by side.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/compat"
	"repro/internal/core"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// Report bundles everything computed from one study, so each experiment is
// derived once and both the CLI and the benchmarks can assert on it.
type Report struct {
	Study      *core.Study
	Importance map[linuxapi.API]float64
	Unweighted map[linuxapi.API]float64
	Path       []metrics.PathPoint
}

// New computes the shared metrics for a study.
func New(s *core.Study) *Report {
	return &Report{
		Study:      s,
		Importance: metrics.Importance(s.Input),
		Unweighted: metrics.Unweighted(s.Input),
		Path:       metrics.GreedyPath(s.Input, linuxapi.KindSyscall),
	}
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// sparkline renders a descending curve as a compact ASCII strip.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	marks := []rune(" .:-=+*#%@")
	var b strings.Builder
	for i := 0; i < width; i++ {
		v := vals[i*len(vals)/width]
		idx := int(v * float64(len(marks)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(marks) {
			idx = len(marks) - 1
		}
		b.WriteRune(marks[idx])
	}
	return b.String()
}

// Figure1 renders the executable-classification census.
func (r *Report) Figure1() string {
	c := r.Study.Stats.Census
	total := c.Total()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: executable types (total files %d)\n", total)
	row := func(label string, n int) {
		fmt.Fprintf(&b, "  %-18s %6d  %6s\n", label, n, pct(float64(n)/float64(total)))
	}
	row("ELF binaries", c.ELF())
	var interps []string
	for k := range c.Scripts {
		interps = append(interps, k)
	}
	sort.Slice(interps, func(i, j int) bool {
		if c.Scripts[interps[i]] != c.Scripts[interps[j]] {
			return c.Scripts[interps[i]] > c.Scripts[interps[j]]
		}
		return interps[i] < interps[j] // ties come out of a map: order them
	})
	for _, k := range interps {
		row("script: "+k, c.Scripts[k])
	}
	row("other", c.Other)
	elf := c.ELF()
	fmt.Fprintf(&b, "  ELF split: %s shared libs, %s dynamic execs, %s static\n",
		pct(float64(c.ELFLib)/float64(elf)),
		pct(float64(c.ELFExec)/float64(elf)),
		pct(float64(c.ELFStatic)/float64(elf)))
	return b.String()
}

// CurveStats summarizes one importance curve.
type CurveStats struct {
	Kind     linuxapi.Kind
	Total    int // APIs with any measured usage
	At100    int
	Above10  int
	Above1   int
	BelowPct float64 // fraction of the full universe below 1%
}

func (r *Report) curve(kind linuxapi.Kind, universe int) (CurveStats, []float64) {
	_, vals := metrics.Curve(r.Importance, kind)
	cs := CurveStats{
		Kind:    kind,
		Total:   len(vals),
		At100:   metrics.CountAbove(vals, 0.999),
		Above10: metrics.CountAbove(vals, 0.10),
		Above1:  metrics.CountAbove(vals, 0.01),
	}
	if universe > 0 {
		cs.BelowPct = float64(universe-cs.Above1) / float64(universe)
	}
	return cs, vals
}

// Figure2 renders the system-call importance curve.
func (r *Report) Figure2() string {
	cs, vals := r.curve(linuxapi.KindSyscall, linuxapi.SyscallCount())
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: API importance of system calls (table size %d)\n",
		linuxapi.SyscallCount())
	fmt.Fprintf(&b, "  indispensable (~100%%): %d   (paper: 224)\n", cs.At100)
	fmt.Fprintf(&b, "  importance >= 10%%:     %d   (paper: 257)\n", cs.Above10)
	fmt.Fprintf(&b, "  used at all:           %d   (paper: ~301 non-zero)\n", cs.Total)
	fmt.Fprintf(&b, "  unused (Table 3):      %d   (paper: 18)\n",
		linuxapi.SyscallCount()-cs.Total)
	fmt.Fprintf(&b, "  curve: [%s]\n", sparkline(vals, 60))
	return b.String()
}

// Figure3 renders the weighted-completeness curve with the paper's
// checkpoints.
func (r *Report) Figure3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: weighted completeness vs N most-important syscalls\n")
	checkpoints := []struct {
		n     int
		paper string
	}{{40, "1.12%"}, {81, "10.68%"}, {125, "25%"}, {145, "50.09%"},
		{202, "90.61%"}, {270, "~100% (qemu)"}}
	for _, c := range checkpoints {
		n := c.n
		if n > len(r.Path) {
			n = len(r.Path)
		}
		fmt.Fprintf(&b, "  N=%3d: measured %7s   paper %s\n",
			c.n, pct(r.Path[n-1].Completeness), c.paper)
	}
	vals := make([]float64, len(r.Path))
	for i, p := range r.Path {
		vals[i] = p.Completeness
	}
	fmt.Fprintf(&b, "  curve: [%s]\n", sparkline(vals, 60))
	// §3.2's closing remark: the same path generalizes beyond system
	// calls to vectored opcodes, pseudo-files and library APIs.
	full := metrics.GreedyPathAll(r.Study.Input)
	half := len(full)
	for i, p := range full {
		if p.Completeness >= 0.5 {
			half = i + 1
			break
		}
	}
	fmt.Fprintf(&b, "  full-API path: %d APIs total; 50%% completeness needs %d APIs\n",
		len(full), half)
	return b.String()
}

// Table1 lists syscalls whose raw call sites appear only in libraries.
func (r *Report) Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: system calls used directly only by particular libraries\n")
	for _, row := range linuxapi.LibraryOnlySyscalls {
		for _, sys := range row.Syscalls {
			imp := r.Importance[linuxapi.Sys(sys)]
			var libs []string
			for bin, direct := range r.Study.BinaryDirect {
				if direct.Contains(linuxapi.Sys(sys)) && strings.Contains(bin, ".so") {
					libs = append(libs, bin)
				}
			}
			sort.Strings(libs)
			fmt.Fprintf(&b, "  %-16s measured %7s (paper %5.1f%%) via %s\n",
				sys, pct(imp), row.PaperImportance*100, strings.Join(libs, ", "))
		}
	}
	return b.String()
}

// Table2 lists syscalls dominated by one or two packages.
func (r *Report) Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: system calls dominated by particular packages\n")
	for _, row := range linuxapi.PackageDominatedSyscalls {
		for _, sys := range row.Syscalls {
			users := r.Study.Input.UsersOf(linuxapi.Sys(sys))
			imp := r.Importance[linuxapi.Sys(sys)]
			fmt.Fprintf(&b, "  %-16s measured %7s (paper %4.1f%%) users: %s\n",
				sys, pct(imp), row.PaperImportance*100, strings.Join(users, ", "))
		}
	}
	return b.String()
}

// Table3 lists the unused system calls.
func (r *Report) Table3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: unused system calls\n")
	var measured []string
	for _, d := range linuxapi.Syscalls {
		if _, used := r.Importance[linuxapi.Sys(d.Name)]; !used {
			measured = append(measured, d.Name)
		}
	}
	fmt.Fprintf(&b, "  measured unused: %d (paper: 18)\n", len(measured))
	fmt.Fprintf(&b, "  %s\n", strings.Join(measured, ", "))
	for _, u := range linuxapi.UnusedSyscalls {
		fmt.Fprintf(&b, "  reason: %-60s (%s)\n", strings.Join(u.Names, ", "), u.Reason)
	}
	return b.String()
}

// Table4 renders the five implementation stages.
func (r *Report) Table4() string {
	stages := metrics.Stages(r.Path, []int{40, 81, 145, 202}, 6)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: implementation stages (paper: 1.12/10.68/50.09/90.61/100%%)\n")
	for _, st := range stages {
		var names []string
		for _, api := range st.Samples {
			names = append(names, api.Name)
		}
		fmt.Fprintf(&b, "  stage %-4s +%3d (=%3d)  completeness %8s  e.g. %s\n",
			st.Label, st.Added, st.LastN, pct(st.Completeness), strings.Join(names, ", "))
	}
	return b.String()
}

// Figure4 and Figure5 render the vectored-opcode curves.
func (r *Report) Figure4() string {
	cs, vals := r.curve(linuxapi.KindIoctl, linuxapi.TotalIoctlCodes)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: ioctl operation codes (defined: %d)\n", linuxapi.TotalIoctlCodes)
	fmt.Fprintf(&b, "  at 100%%: %d (paper: 52)   >1%%: %d (paper: 188)   used: %d (paper: 280)\n",
		cs.At100, cs.Above1, cs.Total)
	fmt.Fprintf(&b, "  curve: [%s]\n", sparkline(vals, 60))
	return b.String()
}

// Figure5 renders fcntl and prctl.
func (r *Report) Figure5() string {
	fc, fvals := r.curve(linuxapi.KindFcntl, len(linuxapi.Fcntls))
	pc, pvals := r.curve(linuxapi.KindPrctl, len(linuxapi.Prctls))
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: fcntl and prctl operation codes\n")
	fmt.Fprintf(&b, "  fcntl: %d/%d at 100%% (paper: 11/18)   [%s]\n",
		fc.At100, len(linuxapi.Fcntls), sparkline(fvals, 18))
	fmt.Fprintf(&b, "  prctl: %d/%d at 100%% (paper: 9/44), >20%%: %d (paper: 18)   [%s]\n",
		pc.At100, len(linuxapi.Prctls),
		func() int {
			_, v := metrics.Curve(r.Importance, linuxapi.KindPrctl)
			return metrics.CountAbove(v, 0.20)
		}(),
		sparkline(pvals, 44))
	return b.String()
}

// Figure6 renders the pseudo-file curve with its head.
func (r *Report) Figure6() string {
	apis, vals := metrics.Curve(r.Importance, linuxapi.KindPseudoFile)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: pseudo-file importance (measured files: %d)\n", len(apis))
	for i := 0; i < len(apis) && i < 10; i++ {
		fmt.Fprintf(&b, "  %-28s %s\n", apis[i].Name, pct(vals[i]))
	}
	fmt.Fprintf(&b, "  curve: [%s]\n", sparkline(vals, 60))
	return b.String()
}

// Figure7 renders the libc-symbol curve and the stripped-libc estimate.
func (r *Report) Figure7(stripped compat.StrippedLibc) string {
	cs, vals := r.curve(linuxapi.KindLibcSym, linuxapi.GNULibcSymbolCount)
	n := float64(linuxapi.GNULibcSymbolCount)
	below50 := n - float64(metrics.CountAbove(vals, 0.50))
	below1 := n - float64(metrics.CountAbove(vals, 0.01))
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: GNU libc exported symbols (%d total)\n",
		linuxapi.GNULibcSymbolCount)
	fmt.Fprintf(&b, "  at 100%%: %s (paper: 42.8%%)   <50%%: %s (paper: 50.6%%)   <1%%: %s (paper: 39.7%%)\n",
		pct(float64(cs.At100)/n), pct(below50/n), pct(below1/n))
	fmt.Fprintf(&b, "  stripped at >=%.0f%%: keep %d symbols (paper: 889), size %s (paper: 63%%), completeness %s (paper: 90.7%%)\n",
		stripped.Threshold*100, stripped.Kept, pct(stripped.SizeFraction),
		pct(stripped.Completeness))
	fmt.Fprintf(&b, "  relocation table: %d entries, %d bytes (paper: 30,576)\n",
		linuxapi.GNULibcSymbolCount, stripped.RelocationBytes)
	fmt.Fprintf(&b, "  curve: [%s]\n", sparkline(vals, 60))
	return b.String()
}

// Table5 renders the libc-family initialization footprint.
func (r *Report) Table5() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: ubiquitous system calls from libc-family initialization\n")
	for _, row := range linuxapi.LibcInitSyscalls {
		var ok, missing []string
		for _, sys := range row.Syscalls {
			if r.Importance[linuxapi.Sys(sys)] >= 0.999 {
				ok = append(ok, sys)
			} else {
				missing = append(missing, sys)
			}
		}
		fmt.Fprintf(&b, "  %-28s %s", strings.Join(row.Libraries, ", "), strings.Join(ok, ", "))
		if len(missing) > 0 {
			fmt.Fprintf(&b, "   [below 100%%: %s]", strings.Join(missing, ", "))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Table6 renders the Linux-systems completeness table.
func (r *Report) Table6() string {
	results := compat.EvaluateAll(r.Study.Input, r.Path)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: weighted completeness of Linux systems and emulation layers\n")
	for _, res := range results {
		fmt.Fprintf(&b, "  %-18s %-7s #%-4d measured %8s (paper %6.2f%%)  add: %s\n",
			res.System.Name, res.System.Version, res.Supported,
			pct(res.Completeness), res.System.PaperCompleteness*100,
			strings.Join(res.Suggested, ", "))
	}
	return b.String()
}

// Table7 renders the libc-variant completeness table.
func (r *Report) Table7() string {
	results := compat.EvaluateAllLibc(r.Study.Input, r.Importance)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: weighted completeness of libc variants vs GNU libc\n")
	for _, res := range results {
		fmt.Fprintf(&b, "  %-10s %-8s #%-5d raw %7s (paper %5.1f%%)  normalized %7s (paper %5.1f%%)  missing e.g. %s\n",
			res.Variant.Name, res.Variant.Version, res.Exported,
			pct(res.Raw), res.Variant.PaperRaw*100,
			pct(res.Normalized), res.Variant.PaperNormalized*100,
			strings.Join(res.MissingSamples, ", "))
	}
	return b.String()
}

// Figure8 renders the unweighted importance curve.
func (r *Report) Figure8() string {
	_, vals := metrics.Curve(r.Unweighted, linuxapi.KindSyscall)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: unweighted API importance of system calls\n")
	fmt.Fprintf(&b, "  used by all packages: %d (paper: 40)\n",
		metrics.CountAbove(vals, 0.9999))
	fmt.Fprintf(&b, "  used by >=10%% of packages: %d (paper: 130)\n",
		metrics.CountAbove(vals, 0.10))
	fmt.Fprintf(&b, "  used by <10%%: %d of %d (paper: over half)\n",
		len(vals)-metrics.CountAbove(vals, 0.10), linuxapi.SyscallCount())
	fmt.Fprintf(&b, "  curve: [%s]\n", sparkline(vals, 60))
	return b.String()
}

func (r *Report) variantTable(title string, pairs []linuxapi.VariantPair,
	left, right string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "  %-14s %9s %9s | %-14s %9s %9s\n",
		left, "measured", "paper", right, "measured", "paper")
	for _, p := range pairs {
		fmt.Fprintf(&b, "  %-14s %9s %8.2f%% | %-14s %9s %8.2f%%\n",
			p.Left, pct(r.Unweighted[linuxapi.Sys(p.Left)]), p.LeftU*100,
			p.Right, pct(r.Unweighted[linuxapi.Sys(p.Right)]), p.RightU*100)
	}
	return b.String()
}

// Table8 through Table11 render Section 5's variant-adoption tables.
func (r *Report) Table8() string {
	return r.variantTable("Table 8: insecure vs secure API variants",
		linuxapi.SecureVariantPairs, "insecure", "secure")
}

// Table9 renders old vs new variants.
func (r *Report) Table9() string {
	return r.variantTable("Table 9: old vs new API variants",
		linuxapi.OldNewVariantPairs, "old", "new")
}

// Table10 renders Linux-specific vs portable variants.
func (r *Report) Table10() string {
	return r.variantTable("Table 10: Linux-specific vs portable API variants",
		linuxapi.PortableVariantPairs, "linux-specific", "portable")
}

// Table11 renders powerful vs simple variants.
func (r *Report) Table11() string {
	return r.variantTable("Table 11: powerful vs simple API variants",
		linuxapi.SimplicityVariantPairs, "powerful", "simple")
}

// Table12 renders the framework's implementation statistics.
func (r *Report) Table12() string {
	tables, rows := metrics.RecordStats(r.Study.Input)
	var b strings.Builder
	fmt.Fprintf(&b, "Table 12: analysis framework statistics\n")
	fmt.Fprintf(&b, "  packages analyzed:        %d (paper: 30,976)\n", r.Study.Corpus.Repo.Len())
	fmt.Fprintf(&b, "  executables analyzed:     %d\n", r.Study.Stats.Executables)
	fmt.Fprintf(&b, "  store tables:             %d (paper: 48)\n", tables)
	fmt.Fprintf(&b, "  store rows:               %d (paper: 428,634,030)\n", rows)
	fmt.Fprintf(&b, "  syscall sites:            %d, unresolved %d = %s (paper: 2,454 = 4%%)\n",
		r.Study.Stats.TotalSites, r.Study.Stats.UnresolvedSites,
		pct(float64(r.Study.Stats.UnresolvedSites)/float64(max(r.Study.Stats.TotalSites, 1))))
	return b.String()
}

// Section6 renders the footprint-uniqueness observation.
func (r *Report) Section6() string {
	st := r.Study.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "Section 6: system-call footprints as application identity\n")
	fmt.Fprintf(&b, "  executables: %d   distinct footprints: %d   unique: %d (paper: 31,433 / 11,680 / 9,133)\n",
		st.Executables, st.DistinctFootprints, st.UniqueFootprints)
	fmt.Fprintf(&b, "  binaries issuing raw syscalls: %d execs, %d libs (paper: 7,259 / 2,752)\n",
		st.DirectSyscallExecs, st.DirectSyscallLibs)
	return b.String()
}

// All renders the complete study report in paper order.
func (r *Report) All(stripped compat.StrippedLibc) string {
	sections := []string{
		r.Figure1(), r.Figure2(), r.Table1(), r.Table2(), r.Table3(),
		r.Figure3(), r.Table4(), r.Figure4(), r.Figure5(), r.Figure6(),
		r.Figure7(stripped), r.Table5(), r.Table6(), r.Table7(),
		r.Figure8(), r.Table8(), r.Table9(), r.Table10(), r.Table11(),
		r.Table12(), r.Section6(),
	}
	return strings.Join(sections, "\n")
}
