package repro

import (
	"fmt"

	"repro/internal/apt"
	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
	"repro/internal/popcon"
	"repro/internal/report"
	"repro/internal/snapshot"
)

// SnapshotData extracts the study's full serving state — packages,
// weights, dependency edges, footprint bitset columns, and the
// precomputed importance/unweighted/greedy-path metrics — as a
// snapshot.Data stamped with the given publisher generation. A study
// restored from it (StudyFromSnapshot) answers every read-path query
// identically to this one, without re-running the analysis pipeline.
func (s *Study) SnapshotData(generation uint64) (*snapshot.Data, error) {
	in := s.core.Input
	repo := s.core.Corpus.Repo
	survey := s.core.Corpus.Survey
	names := repo.Names()
	pkgs := make([]snapshot.Package, 0, len(names))
	for _, name := range names {
		p := repo.Get(name)
		fp := in.Footprints[name]
		if fp == nil {
			fp = footprint.NewBitSet()
		}
		dir := in.Direct[name]
		if dir == nil {
			dir = footprint.NewBitSet()
		}
		pkgs = append(pkgs, snapshot.Package{
			Name:      name,
			Version:   p.Version,
			Depends:   append([]string(nil), p.Depends...),
			Installs:  survey.Installs(name),
			Footprint: fp,
			Direct:    dir,
		})
	}
	st := &s.core.Stats
	samples := make([]snapshot.SkippedSample, 0, len(st.SkippedSamples))
	for _, sk := range st.SkippedSamples {
		samples = append(samples, snapshot.SkippedSample{Pkg: sk.Pkg, Path: sk.Path, Err: sk.Err})
	}
	var scripts map[string]int
	if len(st.Census.Scripts) > 0 {
		scripts = make(map[string]int, len(st.Census.Scripts))
		for k, v := range st.Census.Scripts {
			scripts[k] = v
		}
	}
	path := make([]snapshot.PathPoint, 0, len(s.report.Path))
	for _, pt := range s.report.Path {
		path = append(path, snapshot.PathPoint{
			API: pt.API, Importance: pt.Importance, Completeness: pt.Completeness,
		})
	}
	return &snapshot.Data{
		Generation:    generation,
		Installations: survey.Total,
		Fingerprint:   s.Fingerprint(),
		Meta: snapshot.MetaInfo{
			Executables:        st.Executables,
			TotalSites:         st.TotalSites,
			UnresolvedSites:    st.UnresolvedSites,
			DirectSyscallExecs: st.DirectSyscallExecs,
			DirectSyscallLibs:  st.DirectSyscallLibs,
			DistinctFootprints: st.DistinctFootprints,
			UniqueFootprints:   st.UniqueFootprints,
			SkippedFiles:       st.SkippedFiles,
			SkippedSamples:     samples,
			Census: snapshot.Census{
				ELFExec:   st.Census.ELFExec,
				ELFLib:    st.Census.ELFLib,
				ELFStatic: st.Census.ELFStatic,
				Scripts:   scripts,
				Other:     st.Census.Other,
			},
		},
		Packages:   pkgs,
		Importance: s.report.Importance,
		Unweighted: s.report.Unweighted,
		Path:       path,
	}, nil
}

// EncodeSnapshot serializes the study into snapshot file bytes.
func (s *Study) EncodeSnapshot(generation uint64) ([]byte, error) {
	d, err := s.SnapshotData(generation)
	if err != nil {
		return nil, err
	}
	return snapshot.Encode(d)
}

// WriteSnapshot writes the study's snapshot file at path, atomically
// and durably.
func (s *Study) WriteSnapshot(path string, generation uint64) error {
	data, err := s.EncodeSnapshot(generation)
	if err != nil {
		return err
	}
	return atomicfile.WriteDurable(path, data)
}

// StudyFromSnapshot reconstructs a serving-ready study from decoded
// snapshot data. The read path — importance, completeness, suggest,
// greedy path, footprint, seccomp, compat tables — answers identically
// to the study the snapshot was taken from; what a snapshot study lacks
// is the raw corpus, so AnalyzeBinary resolves imports against an empty
// resolver and Emulate/SaveCorpus have nothing to work from.
func StudyFromSnapshot(d *snapshot.Data) (*Study, error) {
	repo := apt.NewRepository()
	survey := popcon.NewSurvey(d.Installations)
	fps := make(map[string]*footprint.BitSet, len(d.Packages))
	dirs := make(map[string]*footprint.BitSet, len(d.Packages))
	for i := range d.Packages {
		p := &d.Packages[i]
		if err := repo.Add(&apt.Package{Name: p.Name, Version: p.Version, Depends: p.Depends}); err != nil {
			return nil, fmt.Errorf("repro: snapshot package %s: %w", p.Name, err)
		}
		survey.Set(p.Name, p.Installs)
		fp := p.Footprint
		if fp == nil {
			fp = footprint.NewBitSet()
		}
		fps[p.Name] = fp
		dir := p.Direct
		if dir == nil {
			dir = footprint.NewBitSet()
		}
		dirs[p.Name] = dir
	}
	in := &metrics.Input{Repo: repo, Survey: survey, Footprints: fps, Direct: dirs}
	cs := &core.Study{
		Corpus: &corpus.Corpus{
			Cfg:            corpus.Config{Packages: len(d.Packages), Installations: d.Installations},
			Repo:           repo,
			Survey:         survey,
			InterpreterPkg: map[string]string{},
		},
		Input:        in,
		Resolver:     footprint.NewResolver(),
		BinaryDirect: map[string]footprint.Set{},
		Stats: core.Stats{
			Census: core.FileCensus{
				ELFExec:   d.Meta.Census.ELFExec,
				ELFLib:    d.Meta.Census.ELFLib,
				ELFStatic: d.Meta.Census.ELFStatic,
				Scripts:   d.Meta.Census.Scripts,
				Other:     d.Meta.Census.Other,
			},
			TotalSites:         d.Meta.TotalSites,
			UnresolvedSites:    d.Meta.UnresolvedSites,
			DirectSyscallExecs: d.Meta.DirectSyscallExecs,
			DirectSyscallLibs:  d.Meta.DirectSyscallLibs,
			Executables:        d.Meta.Executables,
			DistinctFootprints: d.Meta.DistinctFootprints,
			UniqueFootprints:   d.Meta.UniqueFootprints,
			SkippedFiles:       d.Meta.SkippedFiles,
			SkippedSamples:     skippedFromSamples(d.Meta.SkippedSamples),
		},
	}
	path := make([]metrics.PathPoint, 0, len(d.Path))
	for i, pt := range d.Path {
		path = append(path, metrics.PathPoint{
			N: i + 1, API: pt.API, Importance: pt.Importance, Completeness: pt.Completeness,
		})
	}
	rep := &report.Report{
		Study:      cs,
		Importance: d.Importance,
		Unweighted: d.Unweighted,
		Path:       path,
	}
	return &Study{
		core:        cs,
		report:      rep,
		snapshotGen: d.Generation,
		fingerprint: d.Fingerprint,
	}, nil
}

func skippedFromSamples(in []snapshot.SkippedSample) []core.SkippedFile {
	if len(in) == 0 {
		return nil
	}
	out := make([]core.SkippedFile, 0, len(in))
	for _, s := range in {
		out = append(out, core.SkippedFile{Pkg: s.Pkg, Path: s.Path, Err: s.Err})
	}
	return out
}

// LoadSnapshotStudy reads a snapshot file into memory and restores a
// study from it. The study does not depend on the file afterwards.
func LoadSnapshotStudy(path string) (*Study, error) {
	d, err := snapshot.Open(path)
	if err != nil {
		return nil, err
	}
	return StudyFromSnapshot(d)
}

// DecodeSnapshotStudy restores a study from in-memory snapshot bytes
// (the transport form used by the replica push endpoint). The caller
// must not modify data afterwards: decoded footprints may alias it.
func DecodeSnapshotStudy(data []byte) (*Study, error) {
	d, err := snapshot.Decode(data)
	if err != nil {
		return nil, err
	}
	return StudyFromSnapshot(d)
}

// SnapshotGeneration returns the publisher-assigned generation of the
// snapshot file this study was restored from (zero for analyzed
// studies).
func (s *Study) SnapshotGeneration() uint64 { return s.snapshotGen }

// FromSnapshot reports whether the study was restored from a snapshot
// file rather than analyzed from a corpus.
func (s *Study) FromSnapshot() bool { return s.fingerprint != "" }

// Close is a no-op that returns nil: a study holds only heap memory,
// which the garbage collector reclaims once the study is unreachable.
// It is kept for callers that release studies explicitly.
func (s *Study) Close() error { return nil }

// EmptyStudy returns a study over zero packages. Replicas started in
// awaiting-snapshot mode serve it (health reports degraded) until the
// publisher pushes a real snapshot.
func EmptyStudy() *Study {
	s, err := StudyFromSnapshot(&snapshot.Data{
		Fingerprint: "empty",
		Importance:  map[linuxapi.API]float64{},
		Unweighted:  map[linuxapi.API]float64{},
	})
	if err != nil {
		panic(fmt.Sprintf("repro: EmptyStudy: %v", err))
	}
	return s
}
