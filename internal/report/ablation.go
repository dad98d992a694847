package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// AblationSummary re-runs the analysis under each design-choice ablation
// DESIGN.md calls out and reports how the measured results move:
//
//  1. whole-binary scanning instead of entry-reachable code (§7's argument
//     for call-graph pruning),
//  2. disabling the address-taken function-pointer over-approximation,
//  3. disabling dependency propagation in weighted completeness (§2.2
//     step 3).
func AblationSummary(c *corpus.Corpus) (string, error) {
	base, err := core.Run(c, footprint.Options{})
	if err != nil {
		return "", err
	}
	whole, err := core.Run(c, footprint.Options{WholeBinary: true})
	if err != nil {
		return "", err
	}
	noFP, err := core.Run(c, footprint.Options{NoFunctionPointers: true})
	if err != nil {
		return "", err
	}

	sysMask := footprint.KindMask(linuxapi.KindSyscall)
	avgSyscalls := func(s *core.Study) float64 {
		var total, n int
		for _, fp := range s.Input.Footprints {
			total += fp.CountMasked(sysMask)
			n++
		}
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	at100 := func(s *core.Study) int {
		_, vals := metrics.Curve(metrics.Importance(s.Input), linuxapi.KindSyscall)
		return metrics.CountAbove(vals, 0.999)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (corpus: %d packages)\n", c.Repo.Len())
	fmt.Fprintf(&b, "  %-34s %18s %18s\n", "", "avg syscalls/pkg", "calls at 100%")
	row := func(label string, s *core.Study) {
		fmt.Fprintf(&b, "  %-34s %18.1f %18d\n", label, avgSyscalls(s), at100(s))
	}
	row("baseline (reachability + fn ptrs)", base)
	row("whole-binary scan", whole)
	row("no function-pointer edges", noFP)

	// Dependency propagation: evaluate one mid-sized support set under
	// both settings.
	path := metrics.GreedyPath(base.Input, linuxapi.KindSyscall)
	n := 145
	if n > len(path) {
		n = len(path)
	}
	supported := make(footprint.Set)
	for _, p := range path[:n] {
		supported.Add(p.API)
	}
	withProp := metrics.WeightedCompleteness(base.Input, supported,
		metrics.CompletenessOptions{Kind: linuxapi.KindSyscall})
	without := metrics.WeightedCompleteness(base.Input, supported,
		metrics.CompletenessOptions{Kind: linuxapi.KindSyscall,
			NoDependencyPropagation: true})
	fmt.Fprintf(&b, "  weighted completeness at %d calls: %s with dependency propagation, %s without\n",
		n, pct(withProp), pct(without))

	// Sanity relations the ablations must respect.
	if avgSyscalls(whole) < avgSyscalls(base) {
		fmt.Fprintf(&b, "  WARNING: whole-binary footprints shrank — investigate\n")
	}
	if avgSyscalls(noFP) > avgSyscalls(base) {
		fmt.Fprintf(&b, "  WARNING: removing taken edges grew footprints — investigate\n")
	}
	return b.String(), nil
}
