package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/compat"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/footprint"
	"repro/internal/stubplan"
)

// minPlanReps is the fewest plan repetitions a run makes, whatever its
// time share: a cold matrix build takes seconds, and a median of three
// survives one disturbed repetition.
const minPlanReps = 3

// planStudy builds the plan corpus's study from its populated analysis
// cache, opened afresh: the per-binary summaries are cache hits, so the
// shared libraries still need re-analysis before the emulator can run
// them, as in a fresh apiplan process over a warm analysis cache.
func planStudy(e *env) (*repro.Study, error) {
	cache, err := repro.OpenAnalysisCache(e.planCacheDir)
	if err != nil {
		return nil, err
	}
	return repro.NewStudyOverCorpus(e.planCorpus, cache, nil)
}

// planTargets are the five modeled compatibility layers of Table 6.
func planTargets() []compat.System {
	return append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
}

// planSamples holds the plan side's measurements, one per repetition,
// and the first repetition's digest the others must match.
type planSamples struct {
	times         []float64
	matrix, plans []time.Duration
	want          string
}

// planRep measures stub-aware planning once from an empty verdict cache:
// stubplan.BuildMatrix (the emulator re-runs every executable once per
// observed system call) plus stubplan.BuildPlan for all five modeled
// systems. Every repetition must produce byte-identical matrices and
// plans, and stub-aware completeness may never fall below presence-only
// completeness.
func (b *bench) planRep(e *env, rep int, s *planSamples) error {
	tr := b.repTracer(rep)
	id := uint64(rep)
	st, err := planStudy(e)
	if err != nil {
		return err
	}
	vdir := filepath.Join(b.dir, fmt.Sprintf("verdicts-%d", rep))
	verdicts, err := repro.OpenAnalysisCache(vdir)
	if err != nil {
		return err
	}
	runtime.GC()
	b.calibrate()
	start := time.Now()
	h := tr.begin(id, "plan.cold", -1)
	sp := tr.begin(id, "stubplan.build_matrix", h)
	m := stubplan.BuildMatrix(st.Core(), stubplan.Options{Cache: verdicts})
	md := tr.end(sp)
	sp = tr.begin(id, "stubplan.build_plan", h)
	plans := buildPlans(st, m)
	pd := tr.end(sp)
	tr.end(h)
	s.times = append(s.times, time.Since(start).Seconds())
	if tr != nil {
		s.matrix = append(s.matrix, md)
		s.plans = append(s.plans, pd)
	}
	if err := os.RemoveAll(vdir); err != nil {
		return err
	}

	digest, err := planDigest(m, plans)
	if err != nil {
		return err
	}
	if rep == 0 {
		s.want = digest
		b.planEmulations = m.Stats.Emulations
		b.layer["stubplan.emulations"] = float64(m.Stats.Emulations)
		b.layer["stubplan.binaries"] = float64(m.Stats.Binaries)
		lookups := m.Stats.CacheHits + m.Stats.CacheMisses
		b.layer["stubplan.verdict_hit_ratio"] = float64(m.Stats.CacheHits) / float64(max(lookups, 1))
	}
	b.check(digest == s.want, "plan matrix or plans differ from the first repetition")
	for _, p := range plans {
		b.check(p.StubAwareCompleteness >= p.PresenceCompleteness,
			"%s: stub-aware completeness %.6f below presence-only %.6f",
			p.System, p.StubAwareCompleteness, p.PresenceCompleteness)
	}
	return nil
}

func (b *bench) recordPlan(s *planSamples) {
	b.record("plan_cold_s", s.times)
	b.note("plan: %d repetitions, %.0f emulations each", len(s.times), b.layer["stubplan.emulations"])
	if len(s.matrix) > 0 {
		b.layer["stubplan.build_matrix_ms"] = millis(medianDur(s.matrix))
		b.layer["stubplan.build_plan_ms"] = millis(medianDur(s.plans))
	}
}

func buildPlans(st *repro.Study, m *stubplan.Matrix) []*stubplan.Plan {
	in, path := st.Core().Input, st.GreedyPath()
	var plans []*stubplan.Plan
	for _, sys := range planTargets() {
		plans = append(plans, stubplan.BuildPlan(in, path, sys, m))
	}
	return plans
}

// planDigest hashes everything a matrix and its plans decide: the policy
// and build counters, every package's waivable and fake-needed sets, and
// the plans' JSON.
func planDigest(m *stubplan.Matrix, plans []*stubplan.Plan) (string, error) {
	sets := func(in map[string]footprint.Set) map[string][]string {
		out := make(map[string][]string, len(in))
		for pkg, set := range in {
			var names []string
			for _, api := range set.Sorted() {
				names = append(names, api.String())
			}
			out[pkg] = names
		}
		return out
	}
	raw, err := json.Marshal(struct {
		Matrix     *stubplan.Matrix
		Waivable   map[string][]string
		FakeNeeded map[string][]string
		Plans      []*stubplan.Plan
	}{m, sets(m.Waivable), sets(m.FakeNeeded), plans})
	if err != nil {
		return "", fmt.Errorf("encoding plans: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// planLayers times the emulator layer the matrix build hides: the lazy
// re-analysis of cache-hit libraries, then for every executable a plain
// baseline run and stubplan.EmulateVerdicts, whose run count must equal
// the matrix's emulation count.
func (b *bench) planLayers(e *env) error {
	tr := b.tr
	root := tr.begin(0, "layers.plan", -1)
	defer tr.end(root)
	st, err := planStudy(e)
	if err != nil {
		return err
	}
	h := tr.begin(0, "core.ensure_emulatable", root)
	st.Core().EnsureEmulatable()
	b.layer["core.ensure_emulatable_ms"] = millis(tr.end(h))

	repo := st.Core().Corpus.Repo
	names := repo.Names()
	sort.Strings(names)
	machine := emu.New(st.Core().Resolver)
	var runs, steps int
	var verdicts time.Duration
	id := uint64(0)
	for _, pkg := range names {
		for _, f := range repo.Get(pkg).Files {
			if class, _ := elfx.Classify(f.Data); class != elfx.ClassELFExec && class != elfx.ClassELFStatic {
				continue
			}
			id++
			bh := tr.begin(id, "binary", root)
			bin, err := elfx.Open(f.Path, f.Data)
			if err != nil {
				return fmt.Errorf("%s%s: %w", pkg, f.Path, err)
			}
			a := footprint.Analyze(bin, footprint.Options{})
			h := tr.begin(id, "emu.baseline", bh)
			trace, err := machine.Run(a)
			tr.end(h)
			if err == nil {
				steps += trace.Steps
			}
			h = tr.begin(id, "stubplan.emulate_verdicts", bh)
			_, n := stubplan.EmulateVerdicts(machine, a)
			verdicts += tr.end(h)
			runs += n
			tr.end(bh)
		}
	}
	b.check(uint64(runs) == b.planEmulations, "emulator ran %d times, the matrix counted %d emulations", runs, b.planEmulations)
	b.layer["emu.runs"] = float64(runs)
	b.layer["emu.run_ms"] = millis(verdicts) / float64(max(runs, 1))
	b.layer["emu.baseline_steps"] = float64(steps)
	b.layer["stubplan.emulate_verdicts_ms"] = millis(verdicts)
	return nil
}
