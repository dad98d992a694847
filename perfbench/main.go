// Command perfbench is the repository benchmark. One run set-up builds a
// study from a seeded synthetic corpus and stands up the serving stack;
// the run then measures the build side (cold study, warm study, replica
// restore), stub-aware planning from a cold verdict cache, and the query
// service over loopback HTTP under the workload's traffic mix. It checks
// every output it can compare, prints each metric by name with its unit,
// and ends its standard output with one JSON line holding the result.
//
// A traced run (--trace 1) records spans around the benchmark's calls
// into each layer, reports per-layer numbers with their self times and
// the tracing overhead, and writes the spans under .bench_build/.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload query-hot --seed 1 --seconds 40 --trace 0
//
// NOTES.md records why the workloads are what they are and which layer
// metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir holds everything a run writes, relative to the repository root
// the benchmark runs from.
const buildDir = ".bench_build"

// workload is one traffic mix for the query phase. The build and plan
// phases are the same in every workload (see NOTES.md).
type workload struct {
	name string
	// churn selects random query keys, uploads and snapshot swaps instead
	// of the cache-friendly read mix.
	churn bool
	// refRate is the fixed arrival rate latency is reported at (req/s).
	refRate float64
	// limit is the p99 latency a rate must meet in the max-rate search.
	limit time.Duration
	// searchStart is the first rate the max-rate search tries (req/s).
	searchStart float64
}

var workloads = map[string]workload{
	"query-hot": {
		name: "query-hot", refRate: 500, limit: 10 * time.Millisecond, searchStart: 5000,
	},
	"query-churn": {
		name: "query-churn", churn: true, refRate: 300, limit: 25 * time.Millisecond, searchStart: 2000,
	},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; an untraced run
// reports them. query_p99_ms and query_max_rps are printed with the
// report but are not among them: their run-to-run spread on a 2-core VM
// is wider than any bound a regression gate could use (NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"study_cold_s", "s"},
	{"study_warm_s", "s"},
	{"replica_ready_s", "s"},
	{"study_alloc_mib", "MiB"},
	{"study_heap_mib", "MiB"},
	{"plan_cold_s", "s"},
	{"query_p50_ms", "ms"},
}

// perLayer are the per-layer metrics a traced run reports.
var perLayer = []metricDef{
	{"corpus.load_ms", "ms"},
	{"core.analyze_ms", "ms"},
	{"core.aggregate_ms", "ms"},
	{"elfx.open_ms", "ms"},
	{"elfx.binaries", "count"},
	{"x86.decode_ms", "ms"},
	{"x86.insts", "count"},
	{"callgraph.build_ms", "ms"},
	{"callgraph.funcs", "count"},
	{"callgraph.edges", "count"},
	{"footprint.extract_ms", "ms"},
	{"footprint.summarize_ms", "ms"},
	{"footprint.sites", "count"},
	{"footprint.unresolved_sites", "count"},
	{"anacache.get_ms", "ms"},
	{"anacache.put_ms", "ms"},
	{"anacache.hit_ratio", "ratio"},
	{"metrics.record_ms", "ms"},
	{"metrics.importance_ms", "ms"},
	{"metrics.greedy_path_ms", "ms"},
	{"metrics.completeness_us", "us"},
	{"report.build_ms", "ms"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.open_ms", "ms"},
	{"snapshot.restore_ms", "ms"},
	{"service.new_ms", "ms"},
	{"service.swap_ms", "ms"},
	{"service.hotset_entries", "count"},
	{"service.lookup_us", "us"},
	{"service.analyze_ms", "ms"},
	{"service.hotset_hit_ratio", "ratio"},
	{"service.bytecache_hit_ratio", "ratio"},
	{"service.bytecache_evictions", "count"},
	{"service.singleflight_shared", "count"},
	{"httpapi.handler_us", "us"},
	{"net.loopback_us", "us"},
	{"stubplan.build_matrix_ms", "ms"},
	{"stubplan.build_plan_ms", "ms"},
	{"stubplan.emulate_verdicts_ms", "ms"},
	{"stubplan.emulations", "count"},
	{"stubplan.binaries", "count"},
	{"stubplan.verdict_hit_ratio", "ratio"},
	{"emu.runs", "count"},
	{"emu.run_ms", "ms"},
	{"emu.baseline_steps", "count"},
	{"core.ensure_emulatable_ms", "ms"},
	{"driver.late_p99_us", "us"},
	{"driver.outstanding_max", "count"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run performs one benchmark invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: query-hot or query-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 40, "measurement time in seconds, shared by the phases")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: workload %q, seconds %d, trace %d\n", *name, *secs, *trace)
		return 2
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := &bench{
		wl:       wl,
		seed:     *seed,
		measure:  time.Duration(*secs) * time.Second,
		dir:      dir,
		out:      stdout,
		cal:      newCalibrator(),
		e2e:      map[string]float64{},
		layer:    map[string]float64{},
		overhead: map[string]float64{},
	}
	if *trace == 1 {
		b.tr = newTracer()
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", wl.name, *seed, *secs, *trace)
	if err := b.run(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if b.tr != nil {
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	res := b.result()
	b.report(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one invocation's state and measurements.
type bench struct {
	wl      workload
	seed    int64
	measure time.Duration
	dir     string
	out     io.Writer
	// tr is nil in untraced runs.
	tr *tracer
	// cal times the host's speed; calSamples are its timings in seconds.
	cal        *calibrator
	calSamples []float64

	e2e   map[string]float64
	layer map[string]float64
	// overhead holds, per end-to-end metric of a traced run, the traced
	// repetitions' median minus the untraced ones'.
	overhead map[string]float64
	// notes are extra lines for the human-readable report.
	notes []string

	attempted, failed int
	failures          []string
	planEmulations    uint64
}

// check counts one verified operation and records it as failed unless
// ok holds.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if ok {
		return
	}
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// repTracer returns the tracer for repetition rep. In a traced run odd
// repetitions are traced and even ones are not, so the run measures both
// and reports the difference as the tracing overhead.
func (b *bench) repTracer(rep int) *tracer {
	if b.tr != nil && rep%2 == 1 {
		return b.tr
	}
	return nil
}

// record stores an end-to-end metric from per-repetition values, split
// by repTracer's parity: the untraced median, and in a traced run the
// traced median minus it as the overhead.
func (b *bench) record(name string, perRep []float64) {
	var plain, traced []float64
	for i, v := range perRep {
		if b.repTracer(i) != nil {
			traced = append(traced, v)
		} else {
			plain = append(plain, v)
		}
	}
	b.e2e[name] = median(plain)
	if len(traced) > 0 {
		b.overhead[name] = median(traced) - median(plain)
	}
}

// run sets up, then spends the measurement time across the phases.
func (b *bench) run() error {
	e, err := b.setupPhase()
	if err != nil {
		return err
	}
	defer e.close()
	if err := b.studyPhase(e, b.measure*60/100); err != nil {
		return err
	}
	b.scaleToHost()
	if err := b.queryPhase(e, b.measure*40/100); err != nil {
		return fmt.Errorf("query phase: %w", err)
	}
	if b.tr == nil {
		return nil
	}
	if err := b.buildLayers(e); err != nil {
		return fmt.Errorf("build layers: %w", err)
	}
	if err := b.planLayers(e); err != nil {
		return fmt.Errorf("plan layers: %w", err)
	}
	if err := b.queryLayers(e); err != nil {
		return fmt.Errorf("query layers: %w", err)
	}
	return nil
}

// studyPhase alternates plan repetitions with build repetitions until its
// budget is spent, giving the build side a quarter of the time. Both sides
// are spread over the same stretch of the run, so their medians sample
// the host over tens of seconds rather than a few, and the calibration
// samples taken between them cover the same stretch. It makes at least
// minPlanReps plan repetitions and starts no round that would likely end
// after the budget.
func (b *bench) studyPhase(e *env, budget time.Duration) error {
	var bs buildSamples
	var ps planSamples
	start := time.Now()
	var buildTime, round time.Duration
	for rep := 0; rep < minPlanReps || time.Since(start)+round <= budget; rep++ {
		roundStart := time.Now()
		if err := b.planRep(e, rep, &ps); err != nil {
			return fmt.Errorf("plan: %w", err)
		}
		for n := 0; n == 0 || 4*buildTime < time.Since(start); n++ {
			t := time.Now()
			if err := b.buildRep(e, len(bs.cold), &bs); err != nil {
				return fmt.Errorf("build: %w", err)
			}
			buildTime += time.Since(t)
		}
		round = time.Since(roundStart)
	}
	b.recordBuild(&bs)
	b.recordPlan(&ps)
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the JSON result: end-to-end metrics in an untraced
// run, per-layer ones in a traced run. A metric that was not measured
// fails the run.
func (b *bench) result() result {
	defs, vals := endToEnd, b.e2e
	if b.tr != nil {
		defs, vals = perLayer, b.layer
	}
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		b.check(ok, "metric %s was not measured", d.name)
		if ok {
			m[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// report prints every measured metric by name with its unit, the
// failure ratio, and in a traced run the self times and tracing overhead.
func (b *bench) report(res result) {
	w := b.out
	fmt.Fprintln(w, "end-to-end:")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, b.e2e[d.name], d.unit)
	}
	for _, n := range b.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  %-30s %14.6f ratio (%d failed of %d attempted)\n", "fail_ratio",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, f := range b.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
	if b.tr == nil {
		return
	}
	fmt.Fprintln(w, "per-layer:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.name, b.layer[d.name], d.unit)
	}
	fmt.Fprintln(w, "span self times (spans, total ms, self ms):")
	times := selfTimes(b.tr.recorded())
	names := make([]string, 0, len(times))
	for n := range times {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		lt := times[n]
		fmt.Fprintf(w, "  %-30s %8d %12.3f %12.3f\n", n, lt.Count, millis(lt.Total), millis(lt.Self))
	}
	fmt.Fprintln(w, "tracing overhead (traced minus untraced repetitions of this run):")
	for _, d := range endToEnd {
		if v, ok := b.overhead[d.name]; ok {
			fmt.Fprintf(w, "  %-30s %+14.4f %s\n", d.name, v, d.unit)
		}
	}
}
