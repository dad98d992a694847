// Command apiplan builds the stub-aware implement-vs-stub plan for a
// compatibility layer: every API in the corpus's dynamic footprint is
// classified by re-running the emulator under fault injection (does the
// binary survive -ENOSYS? a faked success?), and the greedy path is
// then re-walked with those measured waivers to produce an ordered
// worklist — implement this call, fake that one, stub the rest.
//
// The plan JSON goes to stdout and is byte-deterministic for a given
// corpus and policy version, so runs can be diffed or golden-tested.
// Build statistics — including how many emulator runs and executed
// emulator instructions the verdict matrix cost, both of which a warm
// -cache-dir drops to zero — go to stderr.
//
// Usage:
//
//	apiplan -system freebsd-emu                      # one system's plan
//	apiplan -all                                     # every modeled system
//	apiplan -packages 200 -seed 1504 -cache-dir /tmp/ana -system graphene+sched
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro"
	"repro/internal/compat"
	"repro/internal/stubplan"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apiplan: ")
	var (
		packages = flag.Int("packages", 500, "corpus size")
		seed     = flag.Int64("seed", 1504, "corpus seed")
		cacheDir = flag.String("cache-dir", "", "persistent analysis/verdict cache directory")
		system   = flag.String("system", "", "compatibility layer to plan for (see -all for names)")
		all      = flag.Bool("all", false, "plan for every modeled system")
	)
	flag.Parse()

	var targets []compat.System
	switch {
	case *all:
		targets = allSystems()
	case *system != "":
		sys, ok := compat.SystemByName(*system)
		if !ok {
			var names []string
			for _, s := range compat.Systems {
				names = append(names, s.Name)
			}
			names = append(names, compat.GrapheneFixed.Name+compat.GrapheneFixed.Version)
			log.Fatalf("unknown system %q (known: %v)", *system, names)
		}
		targets = append(targets, sys)
	default:
		log.Fatal("one of -system or -all is required")
	}

	var cache *repro.AnalysisCache
	if *cacheDir != "" {
		var err error
		if cache, err = repro.OpenAnalysisCache(*cacheDir); err != nil {
			log.Fatal(err)
		}
	}
	study, err := repro.NewStudyCached(repro.Config{Packages: *packages, Seed: *seed}, cache)
	if err != nil {
		log.Fatal(err)
	}

	m, plans := buildPlans(study, cache, targets)
	fmt.Fprintf(os.Stderr, "apiplan: matrix policy=%d binaries=%d emulations=%d steps=%d cache_hits=%d cache_misses=%d inconclusive=%d\n",
		m.PolicyVersion, m.Stats.Binaries, m.Stats.Emulations, m.Stats.Steps,
		m.Stats.CacheHits, m.Stats.CacheMisses, m.Stats.Inconclusive)

	var out any = plans
	if !*all {
		out = plans[0]
	}
	if err := writeJSON(os.Stdout, out); err != nil {
		log.Fatal(err)
	}
}

// allSystems lists what -all plans for: every modeled system, then
// Graphene with its scheduler fix.
func allSystems() []compat.System {
	return append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
}

// writeJSON writes v as the indented JSON apiplan prints.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// buildPlans measures the verdict matrix over study's executables and
// builds one plan per target, in order.
func buildPlans(study *repro.Study, cache *repro.AnalysisCache, targets []compat.System) (*stubplan.Matrix, []*stubplan.Plan) {
	m := stubplan.BuildMatrix(study.Core(), stubplan.Options{Cache: cache})
	path := study.GreedyPath()
	plans := make([]*stubplan.Plan, 0, len(targets))
	for _, sys := range targets {
		plans = append(plans, stubplan.BuildPlan(study.Core().Input, path, sys, m))
	}
	return m, plans
}
