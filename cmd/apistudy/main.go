// Command apistudy runs the full measurement study and prints every table
// and figure of the paper's evaluation, side by side with the published
// values.
//
// Usage:
//
//	apistudy [-packages N] [-seed S] [-installations M] [-experiment all|fig1|...|tab12|sec6]
//	apistudy -corpus DIR -workers http://127.0.0.1:8841,http://127.0.0.1:8842
//
// It is also the snapshot publisher of the replicated serving tier:
//
//	apistudy -experiment none -snapshot-out study.snap
//	apistudy -experiment none -snapshot-gen 2 -publish http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro"
	"repro/internal/corpus"
	"repro/internal/evolution"
	"repro/internal/fleet"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apistudy: ")
	var (
		packages      = flag.Int("packages", 3000, "number of packages in the synthetic repository")
		seed          = flag.Int64("seed", 1504, "corpus generation seed")
		installations = flag.Int64("installations", 2935744, "survey population")
		corpusDir     = flag.String("corpus", "", "analyze an on-disk corpus (from cmd/corpusgen) instead of generating one")
		cacheDir      = flag.String("cache-dir", "", "persistent analysis cache directory (reuses per-binary analyses across runs)")
		workers       = flag.String("workers", "", "comma-separated apiworker URLs for distributed analysis (empty: analyze in-process)")
		shards        = flag.Int("shards", 0, "shard count for -workers (0: 4 per worker)")
		experiment    = flag.String("experiment", "all", "which experiment to print: all, fig1..fig8, tab1..tab12, sec6, none")
		snapshotOut   = flag.String("snapshot-out", "", "write the analyzed study as a snapshot file to this path")
		snapshotGen   = flag.Uint64("snapshot-gen", 1, "generation stamped into -snapshot-out / -publish snapshots")
		publish       = flag.String("publish", "", "comma-separated apiserved replica URLs to push the snapshot to (POST /v1/snapshot)")
		series        = flag.String("series", "", "emit a figure's raw data series instead (fig2, fig3, fig4, fig5f, fig5p, fig6, fig7, fig8)")
		seriesOut     = flag.String("series-out", "", "build a release series (N corpus generations + trend series) into this directory and exit")
		seriesGens    = flag.Int("series-gens", 3, "generations in the -series-out release series")
		format        = flag.String("format", "csv", "series format: csv or json")
		verbose       = flag.Bool("v", false, "log pipeline timing")
		cpuProfile    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Print(err)
			}
		}()
	}

	start := time.Now()
	var anaCache *repro.AnalysisCache
	if *cacheDir != "" {
		var err error
		anaCache, err = repro.OpenAnalysisCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
	}
	var coord *fleet.Coordinator
	var analyze repro.JobAnalyzer
	if *workers != "" {
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		var logf func(string, ...any)
		if *verbose {
			logf = log.Printf
		}
		coord = fleet.New(fleet.Config{
			Workers: urls,
			Shards:  *shards,
			Cache:   anaCache,
			Logf:    logf,
		})
		analyze = coord.AnalyzeJobs
		if *verbose {
			log.Printf("distributing analysis across %d workers", len(urls))
		}
	}
	if *seriesOut != "" {
		// Series-build invocation: evolve the corpus through N
		// generations, snapshot and trend each, print the per-generation
		// fingerprints (machine-readable, for the smoke scripts) and exit.
		scfg := corpus.DefaultSeriesConfig()
		scfg.Base = corpus.Config{Packages: *packages, Seed: *seed, Installations: *installations}
		scfg.Generations = *seriesGens
		sr, err := evolution.Build(evolution.Config{
			Series:  scfg,
			Dir:     *seriesOut,
			Cache:   anaCache,
			Analyze: analyze,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, g := range sr.Trends.Generations {
			fmt.Printf("gen %d %s packages=%d fingerprint=%s cache_hits=%d cache_misses=%d\n",
				g.Index, g.Snapshot, g.Packages, g.Fingerprint, g.CacheHits, g.CacheMisses)
		}
		log.Printf("series written to %s in %v (%d generations, trends over %d APIs)",
			*seriesOut, time.Since(start).Round(time.Millisecond),
			sr.Generations(), len(sr.Trends.Importance))
		return
	}

	var study *repro.Study
	var err error
	if *corpusDir != "" {
		study, err = repro.LoadStudyDistributed(*corpusDir, anaCache, analyze)
	} else {
		study, err = repro.NewStudyDistributed(repro.Config{
			Packages:      *packages,
			Seed:          *seed,
			Installations: *installations,
		}, anaCache, analyze)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *verbose {
		log.Printf("analyzed %d packages in %v", len(study.Packages()), time.Since(start))
		log.Printf("fingerprint %s", study.Fingerprint())
		if anaCache != nil {
			cs := study.CacheStats()
			log.Printf("analysis cache: %d hits, %d misses, %d writes (hit ratio %.2f)",
				cs.Hits, cs.Misses, cs.Writes, cs.HitRatio())
		}
		if coord != nil {
			fs := coord.Stats()
			log.Printf("fleet: shards=%d dispatched=%d retries=%d hedges=%d failures=%d corrupt=%d local_fallback=%d evictions=%d",
				fs.ShardsTotal, fs.Dispatched, fs.Retries, fs.Hedges, fs.Failures,
				fs.CorruptResponses, fs.LocalFallbackShards, fs.Evictions)
		}
	}

	if *snapshotOut != "" {
		if err := study.WriteSnapshot(*snapshotOut, *snapshotGen); err != nil {
			log.Fatal(err)
		}
		log.Printf("snapshot written to %s (generation %d)", *snapshotOut, *snapshotGen)
	}
	if *publish != "" {
		var urls []string
		for _, u := range strings.Split(*publish, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		data, err := study.EncodeSnapshot(*snapshotGen)
		if err != nil {
			log.Fatal(err)
		}
		pub := fleet.NewPublisher(fleet.PublisherConfig{Replicas: urls, Logf: log.Printf})
		results, err := pub.Publish(context.Background(), data, *snapshotGen, study.Fingerprint())
		for _, res := range results {
			if res.Err != "" {
				log.Printf("publish %s: FAILED: %s", res.Replica, res.Err)
			} else {
				log.Printf("publish %s: generation %d, fingerprint %s", res.Replica, res.Generation, res.Fingerprint)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	r := study.Metrics()
	if *series != "" {
		var err error
		switch *format {
		case "csv":
			err = r.WriteSeriesCSV(os.Stdout, *series)
		case "json":
			err = r.WriteSeriesJSON(os.Stdout, *series)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	stripped := study.StrippedLibc(0.90)
	sections := map[string]func() string{
		"fig1": r.Figure1, "fig2": r.Figure2, "fig3": r.Figure3,
		"fig4": r.Figure4, "fig5": r.Figure5, "fig6": r.Figure6,
		"fig7": func() string { return r.Figure7(stripped) },
		"fig8": r.Figure8,
		"tab1": r.Table1, "tab2": r.Table2, "tab3": r.Table3,
		"tab4": r.Table4, "tab5": r.Table5, "tab6": r.Table6,
		"tab7": r.Table7, "tab8": r.Table8, "tab9": r.Table9,
		"tab10": r.Table10, "tab11": r.Table11, "tab12": r.Table12,
		"sec6": r.Section6,
	}
	switch key := strings.ToLower(*experiment); key {
	case "none":
		// Snapshot-only invocation: analyze, write/publish, print nothing.
	case "all":
		fmt.Print(study.ReportAll())
	case "ablations":
		text, err := report.AblationSummary(study.Core().Corpus)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(text)
	default:
		fn, ok := sections[key]
		if !ok {
			log.Printf("unknown experiment %q; known:", *experiment)
			fmt.Fprintln(os.Stderr, "  all fig1..fig8 tab1..tab12 sec6")
			os.Exit(2)
		}
		fmt.Print(fn())
	}
}
