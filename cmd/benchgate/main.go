// Command benchgate turns `go test -bench` output into a committed
// benchmark artifact and a CI pass/fail decision. It reads benchmark
// lines on stdin, keeps the best (minimum) ns/op per sub-benchmark
// across repeated counts — the standard way to suppress scheduler noise
// on shared CI runners — writes a JSON summary, and exits non-zero when
// the warm-over-cold speedup of the analysis cache falls below the
// floor. The floor is the regression gate: the cache exists to make
// reloads cheap, and a change that erodes that property should fail the
// build, not land silently.
//
// A second mode gates the serving path: -serving reads a cmd/apiload
// report (internal/loadgen JSON) and fails the build when the p99 of
// accepted requests exceeds the SLO, when any 5xx was observed, or
// when the run was empty — overload is allowed to shed (429), never to
// be slow or broken for what it accepts. The checked report is written
// as BENCH_serving.json next to the pipeline artifact.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkStudyColdVsWarm -benchtime=1x -count=3 . |
//	    go run ./cmd/benchgate -out BENCH_pipeline.json
//	go run ./cmd/benchgate -serving load_report.json -out BENCH_serving.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strconv"

	"repro/internal/loadgen"
)

// sample is every ns/op observation for one sub-benchmark.
type sample struct {
	NsPerOp []float64 `json:"ns_per_op"`
	BestNs  float64   `json:"best_ns"`
}

// add records one ns/op observation.
func (s *sample) add(ns float64) {
	s.NsPerOp = append(s.NsPerOp, ns)
	if s.BestNs == 0 || ns < s.BestNs {
		s.BestNs = ns
	}
}

// memSample is a sample with -benchmem's columns, one value per run.
type memSample struct {
	sample
	BytesPerOp  []float64 `json:"bytes_per_op"`
	AllocsPerOp []float64 `json:"allocs_per_op"`
}

// artifact is the committed BENCH_pipeline.json schema.
type artifact struct {
	Benchmark          string  `json:"benchmark"`
	Count              int     `json:"count"`
	Cold               sample  `json:"cold"`
	Warm               sample  `json:"warm"`
	Incremental        sample  `json:"incremental"`
	WarmSpeedup        float64 `json:"warm_speedup"`
	IncrementalSpeedup float64 `json:"incremental_speedup"`
	MinWarmSpeedup     float64 `json:"min_warm_speedup"`
	// Aggregate rows (BenchmarkAggregateMetrics) gate the bitset
	// aggregation/metrics path against its map-based reference: the
	// dense representation exists to make the post-analysis stage fast,
	// and a change that erodes the ratio below the floor fails CI.
	AggregateMap        sample  `json:"aggregate_map"`
	AggregateBitset     sample  `json:"aggregate_bitset"`
	AggregateSpeedup    float64 `json:"aggregate_speedup"`
	MinAggregateSpeedup float64 `json:"min_aggregate_speedup"`
	// Snapshot rows (BenchmarkSnapshotOpenVsRebuild) gate the columnar
	// snapshot format against rebuilding from the corpus: the format
	// exists to make replica swaps near-instant, and a change that
	// erodes the open-over-rebuild ratio below the floor fails CI.
	SnapshotRebuild    sample  `json:"snapshot_rebuild"`
	SnapshotOpen       sample  `json:"snapshot_open"`
	SnapshotSpeedup    float64 `json:"snapshot_speedup"`
	MinSnapshotSpeedup float64 `json:"min_snapshot_speedup"`
	// Evolution rows (BenchmarkEvolutionSeriesColdVsWarm) gate the
	// incremental series rebuild: the analysis cache carries unchanged
	// packages byte-identically across generations, and a change that
	// erodes the warm-over-cold ratio below the floor fails CI.
	EvolutionCold       sample  `json:"evolution_cold"`
	EvolutionWarm       sample  `json:"evolution_warm"`
	EvolutionSpeedup    float64 `json:"evolution_warm_speedup"`
	MinEvolutionSpeedup float64 `json:"min_evolution_speedup"`
	// Hotpath rows (BenchmarkQueryHotPath) gate the served read path
	// against computing every answer (the answer builders plus encoding,
	// what each byte-cache miss runs) under parallel mixed reads, in the
	// same run: the byte cache and hotset exist to make steady-state
	// queries lock-free, and a change that erodes the ratio below the
	// floor fails CI.
	HotpathCompute    sample  `json:"hotpath_compute"`
	HotpathHot        sample  `json:"hotpath_hot"`
	HotpathSpeedup    float64 `json:"hotpath_speedup"`
	MinHotpathSpeedup float64 `json:"min_hotpath_speedup"`
	// Stubplan rows (BenchmarkStubPlanColdVsWarm) gate the verdict cache
	// behind stub-aware planning: a cold matrix build re-runs the
	// emulator under fault injection for every executable, a warm build
	// replays content-addressed verdicts from disk, and a change that
	// erodes the warm-over-cold ratio below the floor fails CI.
	StubPlanCold       sample  `json:"stubplan_cold"`
	StubPlanWarm       sample  `json:"stubplan_warm"`
	StubPlanSpeedup    float64 `json:"stubplan_speedup"`
	MinStubPlanSpeedup float64 `json:"min_stubplan_speedup"`
	// StubPlanPlans is the five BuildPlan calls alone over the warm
	// matrix; informational, not gated.
	StubPlanPlans *sample `json:"stubplan_plans,omitempty"`
	// StubPlanCodeBulk (BenchmarkBuildMatrixCodeBulk) is a cold matrix
	// build over binaries carrying CodeBulk filler: time and allocation
	// of emulating code the size of real binaries. Informational, not
	// gated.
	StubPlanCodeBulk *memSample `json:"stubplan_codebulk,omitempty"`
	// Fleet rows (BenchmarkStudyFleetVsLocal) document the coordinator's
	// loopback overhead; informational, not gated — on one machine the
	// fleet can only ever cost, never win.
	FleetLocal    *sample `json:"fleet_local,omitempty"`
	Fleet         *sample `json:"fleet,omitempty"`
	FleetOverhead float64 `json:"fleet_overhead,omitempty"`
	Pass          bool    `json:"pass"`
}

// fleetBench's sub-results are recorded in the artifact but never fail
// the gate; aggBench's map-vs-bitset ratio is gated like the cache.
const (
	fleetBench = "BenchmarkStudyFleetVsLocal"
	aggBench   = "BenchmarkAggregateMetrics"
	snapBench  = "BenchmarkSnapshotOpenVsRebuild"
	evoBench   = "BenchmarkEvolutionSeriesColdVsWarm"
	hotBench   = "BenchmarkQueryHotPath"
	stubBench  = "BenchmarkStubPlanColdVsWarm"
)

// codeBulkLine matches one BenchmarkBuildMatrixCodeBulk row, which has
// no sub-benchmark and carries -benchmem's columns after its own
// metrics, e.g.
//
//	BenchmarkBuildMatrixCodeBulk-2  1  234069463 ns/op  47035 emulations/op  20640157 steps/op  148472565 B/op  548487 allocs/op
var codeBulkLine = regexp.MustCompile(
	`^BenchmarkBuildMatrixCodeBulk(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op.*\s([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

// benchLine matches one `go test -bench` result row, e.g.
//
//	BenchmarkStudyColdVsWarm/warm-8   3   163392605 ns/op
//
// The -8 GOMAXPROCS suffix is optional (absent on single-CPU runners).
var benchLine = regexp.MustCompile(
	`^(Benchmark[^\s/]+)/(\w+)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "artifact path")
	bench := flag.String("bench", "BenchmarkStudyColdVsWarm", "benchmark to gate on")
	minWarm := flag.Float64("min-warm-speedup", 2.0,
		"fail unless cold/warm >= this ratio")
	minAgg := flag.Float64("min-aggregate-speedup", 2.0,
		"fail unless map/bitset aggregation >= this ratio")
	minSnap := flag.Float64("min-snapshot-speedup", 10.0,
		"fail unless rebuild/open snapshot restore >= this ratio")
	minEvo := flag.Float64("min-evolution-speedup", 2.0,
		"fail unless cold/warm series rebuild >= this ratio")
	minHot := flag.Float64("min-hotpath-speedup", 2.0,
		"fail unless compute/hot query read path >= this ratio")
	minStub := flag.Float64("min-stubplan-speedup", 2.0,
		"fail unless cold/warm stub-aware plan build >= this ratio")
	serving := flag.String("serving", "",
		"gate a cmd/apiload report instead of benchmark output (path to report JSON)")
	maxP99 := flag.Float64("max-p99-ms", 500,
		"with -serving: fail unless accepted-request p99 <= this many ms")
	rampPath := flag.String("ramp", "",
		"with -serving: also gate a cmd/apiload -ramp report (zero 5xx and zero transport errors across every stage)")
	ceilPath := flag.String("ceilings", "",
		"with -serving: also record a cmd/apiload -ceiling report's max_rps_under_slo (fails when no stage met the SLO)")
	flag.Parse()

	if *serving != "" {
		gateServing(*serving, *rampPath, *ceilPath, *out, *maxP99)
		return
	}

	samples := map[string]*sample{}
	var codeBulk *memSample
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // passthrough so CI logs keep the raw output
		if m := codeBulkLine.FindStringSubmatch(line); m != nil {
			var v [3]float64
			for i := range v {
				var err error
				if v[i], err = strconv.ParseFloat(m[i+1], 64); err != nil {
					fatalf("parsing %q: %v", line, err)
				}
			}
			if codeBulk == nil {
				codeBulk = &memSample{}
			}
			codeBulk.add(v[0])
			codeBulk.BytesPerOp = append(codeBulk.BytesPerOp, v[1])
			codeBulk.AllocsPerOp = append(codeBulk.AllocsPerOp, v[2])
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil || (m[1] != *bench && m[1] != fleetBench && m[1] != aggBench &&
			m[1] != snapBench && m[1] != evoBench && m[1] != hotBench &&
			m[1] != stubBench) {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		key := m[2]
		if m[1] == fleetBench && key == "local" {
			// Disambiguate from the gated benchmark's sub-names.
			key = "fleet_local"
		}
		if m[1] == aggBench {
			key = "aggregate_" + key
		}
		if m[1] == snapBench {
			key = "snapshot_" + key
		}
		if m[1] == evoBench {
			key = "evolution_" + key
		}
		if m[1] == hotBench {
			key = "hotpath_" + key
		}
		if m[1] == stubBench {
			// Disambiguate from the gated study benchmark's cold/warm.
			key = "stubplan_" + key
		}
		s := samples[key]
		if s == nil {
			s = &sample{}
			samples[key] = s
		}
		s.add(ns)
	}
	if err := sc.Err(); err != nil {
		fatalf("reading stdin: %v", err)
	}

	var count int
	for _, name := range []string{"cold", "warm", "incremental"} {
		s := samples[name]
		if s == nil || len(s.NsPerOp) == 0 {
			fatalf("no %s/%s samples in input — did the benchmark run?", *bench, name)
		}
		if count == 0 || len(s.NsPerOp) < count {
			count = len(s.NsPerOp)
		}
	}
	for _, name := range []string{"aggregate_map", "aggregate_bitset"} {
		if s := samples[name]; s == nil || len(s.NsPerOp) == 0 {
			fatalf("no %s/%s samples in input — did the benchmark run?",
				aggBench, name[len("aggregate_"):])
		}
	}
	for _, name := range []string{"snapshot_rebuild", "snapshot_open"} {
		if s := samples[name]; s == nil || len(s.NsPerOp) == 0 {
			fatalf("no %s/%s samples in input — did the benchmark run?",
				snapBench, name[len("snapshot_"):])
		}
	}
	for _, name := range []string{"evolution_cold", "evolution_warm"} {
		if s := samples[name]; s == nil || len(s.NsPerOp) == 0 {
			fatalf("no %s/%s samples in input — did the benchmark run?",
				evoBench, name[len("evolution_"):])
		}
	}
	for _, name := range []string{"hotpath_compute", "hotpath_hot"} {
		if s := samples[name]; s == nil || len(s.NsPerOp) == 0 {
			fatalf("no %s/%s samples in input — did the benchmark run?",
				hotBench, name[len("hotpath_"):])
		}
	}
	for _, name := range []string{"stubplan_cold", "stubplan_warm"} {
		if s := samples[name]; s == nil || len(s.NsPerOp) == 0 {
			fatalf("no %s/%s samples in input — did the benchmark run?",
				stubBench, name[len("stubplan_"):])
		}
	}

	a := artifact{
		Benchmark:           *bench,
		Count:               count,
		Cold:                *samples["cold"],
		Warm:                *samples["warm"],
		Incremental:         *samples["incremental"],
		MinWarmSpeedup:      *minWarm,
		AggregateMap:        *samples["aggregate_map"],
		AggregateBitset:     *samples["aggregate_bitset"],
		MinAggregateSpeedup: *minAgg,
		SnapshotRebuild:     *samples["snapshot_rebuild"],
		SnapshotOpen:        *samples["snapshot_open"],
		MinSnapshotSpeedup:  *minSnap,
		EvolutionCold:       *samples["evolution_cold"],
		EvolutionWarm:       *samples["evolution_warm"],
		MinEvolutionSpeedup: *minEvo,
		HotpathCompute:      *samples["hotpath_compute"],
		HotpathHot:          *samples["hotpath_hot"],
		MinHotpathSpeedup:   *minHot,
		StubPlanCold:        *samples["stubplan_cold"],
		StubPlanWarm:        *samples["stubplan_warm"],
		MinStubPlanSpeedup:  *minStub,
	}
	a.WarmSpeedup = round2(a.Cold.BestNs / a.Warm.BestNs)
	a.IncrementalSpeedup = round2(a.Cold.BestNs / a.Incremental.BestNs)
	a.AggregateSpeedup = round2(a.AggregateMap.BestNs / a.AggregateBitset.BestNs)
	a.SnapshotSpeedup = round2(a.SnapshotRebuild.BestNs / a.SnapshotOpen.BestNs)
	a.EvolutionSpeedup = round2(a.EvolutionCold.BestNs / a.EvolutionWarm.BestNs)
	a.HotpathSpeedup = round2(a.HotpathCompute.BestNs / a.HotpathHot.BestNs)
	a.StubPlanSpeedup = round2(a.StubPlanCold.BestNs / a.StubPlanWarm.BestNs)
	a.Pass = a.WarmSpeedup >= *minWarm && a.AggregateSpeedup >= *minAgg &&
		a.SnapshotSpeedup >= *minSnap && a.EvolutionSpeedup >= *minEvo &&
		a.HotpathSpeedup >= *minHot && a.StubPlanSpeedup >= *minStub

	a.StubPlanPlans = samples["stubplan_plans"]
	a.StubPlanCodeBulk = codeBulk
	if fl, f := samples["fleet_local"], samples["fleet"]; fl != nil && f != nil {
		a.FleetLocal, a.Fleet = fl, f
		a.FleetOverhead = round2(f.BestNs / fl.BestNs)
	}

	raw, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fatalf("encoding artifact: %v", err)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fatalf("writing %s: %v", *out, err)
	}

	fmt.Printf("benchgate: cold %.0fms warm %.0fms incremental %.0fms — warm speedup %.2fx (floor %.2fx)\n",
		a.Cold.BestNs/1e6, a.Warm.BestNs/1e6, a.Incremental.BestNs/1e6,
		a.WarmSpeedup, *minWarm)
	fmt.Printf("benchgate: aggregation map %.0fms vs bitset %.0fms — %.2fx speedup (floor %.2fx)\n",
		a.AggregateMap.BestNs/1e6, a.AggregateBitset.BestNs/1e6,
		a.AggregateSpeedup, *minAgg)
	fmt.Printf("benchgate: snapshot rebuild %.0fms vs open %.0fms — %.2fx speedup (floor %.2fx)\n",
		a.SnapshotRebuild.BestNs/1e6, a.SnapshotOpen.BestNs/1e6,
		a.SnapshotSpeedup, *minSnap)
	fmt.Printf("benchgate: evolution series cold %.0fms vs warm %.0fms — %.2fx speedup (floor %.2fx)\n",
		a.EvolutionCold.BestNs/1e6, a.EvolutionWarm.BestNs/1e6,
		a.EvolutionSpeedup, *minEvo)
	fmt.Printf("benchgate: query read path compute %.0fns vs hot %.0fns per op — %.2fx speedup (floor %.2fx)\n",
		a.HotpathCompute.BestNs, a.HotpathHot.BestNs,
		a.HotpathSpeedup, *minHot)
	fmt.Printf("benchgate: stub-aware plan cold %.0fms vs warm %.0fms — %.2fx speedup (floor %.2fx)\n",
		a.StubPlanCold.BestNs/1e6, a.StubPlanWarm.BestNs/1e6,
		a.StubPlanSpeedup, *minStub)
	if a.StubPlanPlans != nil {
		fmt.Printf("benchgate: stub-aware plans for five systems over the warm matrix %.1fms (not gated)\n",
			a.StubPlanPlans.BestNs/1e6)
	}
	if c := a.StubPlanCodeBulk; c != nil {
		fmt.Printf("benchgate: cold matrix build over 24 KiB CodeBulk binaries %.0fms, %.1f MiB allocated (not gated)\n",
			c.BestNs/1e6, slices.Min(c.BytesPerOp)/(1<<20))
	}
	if a.Fleet != nil {
		fmt.Printf("benchgate: fleet %.0fms vs local %.0fms — %.2fx loopback coordination overhead (not gated)\n",
			a.Fleet.BestNs/1e6, a.FleetLocal.BestNs/1e6, a.FleetOverhead)
	}
	if a.WarmSpeedup < *minWarm {
		fatalf("warm speedup %.2fx below floor %.2fx — the analysis cache regressed",
			a.WarmSpeedup, *minWarm)
	}
	if a.AggregateSpeedup < *minAgg {
		fatalf("aggregation speedup %.2fx below floor %.2fx — the bitset path regressed",
			a.AggregateSpeedup, *minAgg)
	}
	if a.SnapshotSpeedup < *minSnap {
		fatalf("snapshot speedup %.2fx below floor %.2fx — the snapshot format regressed",
			a.SnapshotSpeedup, *minSnap)
	}
	if a.EvolutionSpeedup < *minEvo {
		fatalf("evolution warm speedup %.2fx below floor %.2fx — the incremental series rebuild regressed",
			a.EvolutionSpeedup, *minEvo)
	}
	if a.HotpathSpeedup < *minHot {
		fatalf("query hot-path speedup %.2fx below floor %.2fx — the encoded read path regressed",
			a.HotpathSpeedup, *minHot)
	}
	if a.StubPlanSpeedup < *minStub {
		fatalf("stub-aware plan warm speedup %.2fx below floor %.2fx — the verdict cache regressed",
			a.StubPlanSpeedup, *minStub)
	}
}

// servingArtifact is the committed BENCH_serving.json schema: the
// apiload report verbatim, the optional ramp and read-path ceiling
// reports, plus the gate parameters and verdict.
type servingArtifact struct {
	MaxP99Ms float64         `json:"max_p99_ms"`
	Pass     bool            `json:"pass"`
	Report   *loadgen.Report `json:"report"`
	// MaxRPSUnderSLO is the read path's measured throughput ceiling
	// (from -ceilings, falling back to the ramp's max passing rate).
	// It is recorded, not compared with an earlier run: an absolute
	// rate moves with the host's speed.
	MaxRPSUnderSLO float64                `json:"max_rps_under_slo,omitempty"`
	Ramp           *loadgen.RampReport    `json:"ramp,omitempty"`
	Ceilings       *loadgen.CeilingReport `json:"ceilings,omitempty"`
}

// gateServing checks a load report — and optionally a ramp report and
// a read-path ceiling report — against the serving SLOs and writes the
// committed artifact. Shedding under overload is expected and not
// gated; slow or failing accepted requests fail the build, as do 5xx
// anywhere in the ramp and a ceiling search where no stage met the SLO.
func gateServing(reportPath, rampPath, ceilPath, out string, maxP99 float64) {
	var rep loadgen.Report
	readJSON(reportPath, &rep)
	if rep.Accepted.Requests == 0 {
		fatalf("report has no accepted requests — empty or fully-shed run cannot prove the SLO")
	}
	a := servingArtifact{MaxP99Ms: maxP99, Report: &rep}
	a.Pass = rep.Accepted.P99Ms <= maxP99 && rep.HTTP5xx == 0 && rep.Overall.Errors == 0

	if rampPath != "" {
		ramp := &loadgen.RampReport{}
		readJSON(rampPath, ramp)
		a.Ramp = ramp
		a.MaxRPSUnderSLO = ramp.MaxPassingRPS
		if len(ramp.Stages) == 0 || ramp.MaxPassingRPS <= 0 {
			a.Pass = false
		}
		for _, st := range ramp.Stages {
			if st.Report != nil && (st.Report.HTTP5xx != 0 || st.Report.Overall.Errors != 0) {
				a.Pass = false
			}
		}
	}
	if ceilPath != "" {
		ceil := &loadgen.CeilingReport{}
		readJSON(ceilPath, ceil)
		a.Ceilings = ceil
		a.MaxRPSUnderSLO = ceil.MaxRPSUnderSLO
		if ceil.MaxRPSUnderSLO <= 0 {
			a.Pass = false
		}
	}

	enc, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fatalf("encoding artifact: %v", err)
	}
	if err := os.WriteFile(out, append(enc, '\n'), 0o644); err != nil {
		fatalf("writing %s: %v", out, err)
	}

	fmt.Printf("benchgate: serving %s mode, %.0f rps achieved — accepted p50 %.1fms p99 %.1fms (SLO %.0fms), %d shed, %d 5xx, %d transport errors\n",
		rep.Mode, rep.AchievedRPS, rep.Accepted.P50Ms, rep.Accepted.P99Ms, maxP99,
		rep.Shed429, rep.HTTP5xx, rep.Overall.Errors)
	switch {
	case rep.Accepted.P99Ms > maxP99:
		fatalf("accepted p99 %.1fms above SLO %.0fms — the serving path regressed", rep.Accepted.P99Ms, maxP99)
	case rep.HTTP5xx != 0:
		fatalf("%d 5xx responses under load — accepted traffic must not fail", rep.HTTP5xx)
	case rep.Overall.Errors != 0:
		fatalf("%d transport errors under load", rep.Overall.Errors)
	}
	if a.Ramp != nil {
		fmt.Printf("benchgate: ramp max passing rate %.0f rps across %d stages (SLO p99 %.0fms)\n",
			a.Ramp.MaxPassingRPS, len(a.Ramp.Stages), a.Ramp.SLOP99Ms)
		if len(a.Ramp.Stages) == 0 || a.Ramp.MaxPassingRPS <= 0 {
			fatalf("ramp never passed a stage — the serving path cannot hold any rate under the SLO")
		}
		for _, st := range a.Ramp.Stages {
			if st.Report == nil {
				continue
			}
			if st.Report.HTTP5xx != 0 {
				fatalf("%d 5xx responses in the %.0f rps ramp stage — the ramp must shed, not fail", st.Report.HTTP5xx, st.RPS)
			}
			if st.Report.Overall.Errors != 0 {
				fatalf("%d transport errors in the %.0f rps ramp stage", st.Report.Overall.Errors, st.RPS)
			}
		}
	}
	if a.Ceilings != nil {
		fmt.Printf("benchgate: read-path ceiling %.0f rps under the %.0fms p99 SLO across %d stages\n",
			a.Ceilings.MaxRPSUnderSLO, a.Ceilings.SLOP99Ms, len(a.Ceilings.Stages))
		if a.Ceilings.MaxRPSUnderSLO <= 0 {
			fatalf("no ceiling stage met the p99 SLO — the read path cannot hold any rate")
		}
	}
}

// readJSON loads one JSON file into v or dies.
func readJSON(path string, v any) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatalf("reading report: %v", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		fatalf("parsing %s: %v", path, err)
	}
}

func round2(v float64) float64 {
	return float64(int(v*100+0.5)) / 100
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
