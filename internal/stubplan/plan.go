package stubplan

import (
	"repro/internal/compat"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
	"repro/internal/metrics"
)

// Actions order the worklist: implement when some user package genuinely
// needs the call, fake when a trivial success shim suffices everywhere,
// stub when -ENOSYS suffices everywhere.
const (
	ActionImplement = "implement"
	ActionFake      = "fake"
	ActionStub      = "stub"
)

// Step is one entry of the worklist: the next missing syscall in
// importance order, what the cheapest sufficient treatment is, and what
// installing it buys.
type Step struct {
	N   int    `json:"n"`
	API string `json:"api"`
	// Action is the cheapest treatment that satisfies every user
	// package: implement > fake > stub.
	Action string `json:"action"`
	// Importance is the API's weighted importance (the ordering key).
	Importance float64 `json:"importance"`
	// Users counts corpus packages whose footprint contains the API;
	// Waived counts how many of those hold a measured waiver for it.
	Users  int `json:"users"`
	Waived int `json:"waived"`
	// Completeness is the stub-aware weighted completeness after this
	// step lands; Delta is its increment over the previous step.
	Completeness float64 `json:"completeness"`
	Delta        float64 `json:"delta"`
}

// Plan is the ordered implement-vs-stub worklist for one target system.
type Plan struct {
	System  string `json:"system"`
	Version string `json:"version,omitempty"`
	// PolicyVersion records the fault-model version the verdicts behind
	// the waivers were measured under.
	PolicyVersion int `json:"policy_version"`
	// SupportedCount is the size of the system's modeled syscall set.
	SupportedCount int `json:"supported_count"`
	// PresenceCompleteness is the paper's Table 6 number: weighted
	// completeness with no waivers. StubAwareCompleteness is the same
	// supported set judged with measured waivers — by construction never
	// lower. FinalCompleteness is the stub-aware value after every step
	// of the worklist lands.
	PresenceCompleteness  float64 `json:"presence_completeness"`
	StubAwareCompleteness float64 `json:"stub_aware_completeness"`
	FinalCompleteness     float64 `json:"final_completeness"`
	// Implement/Fake/Stub count the worklist by action.
	Implement int    `json:"implement"`
	Fake      int    `json:"fake"`
	Stub      int    `json:"stub"`
	Steps     []Step `json:"steps"`
}

// BuildPlan walks the importance-ranked syscall path and, for every call
// the system does not already support, decides the cheapest sufficient
// treatment and measures the stub-aware completeness of landing the
// prefix. The walk is the greedy path's order, so the plan is the Figure
// 3 curve restarted from the system's supported set — with waived
// packages already counted as satisfied.
func BuildPlan(in *metrics.Input, path []metrics.PathPoint, sys compat.System, m *Matrix) *Plan {
	supported := compat.SupportedSet(sys, path)
	opts := metrics.CompletenessOptions{Kind: linuxapi.KindSyscall}
	waivedOpts := metrics.CompletenessOptions{Kind: linuxapi.KindSyscall, Waivable: m.Waivable}

	p := &Plan{
		System:               sys.Name,
		Version:              sys.Version,
		PolicyVersion:        m.PolicyVersion,
		SupportedCount:       len(supported),
		PresenceCompleteness: metrics.WeightedCompleteness(in, supported, opts),
	}
	p.StubAwareCompleteness = metrics.WeightedCompleteness(in, supported, waivedOpts)
	p.FinalCompleteness = p.StubAwareCompleteness

	cur := make(footprint.Set, len(supported))
	for api := range supported {
		cur.Add(api)
	}
	prev := p.StubAwareCompleteness
	for _, pt := range path {
		if supported.Contains(pt.API) {
			continue
		}
		users, waived, needFake, needImpl := 0, 0, false, false
		// One intern lookup per step: HasID probes no lock, and an API
		// that was never interned is in no footprint.
		id, interned := linuxapi.InternedID(pt.API)
		for pkg, fp := range in.Footprints {
			if !interned || !fp.HasID(id) {
				continue
			}
			users++
			if w := m.Waivable[pkg]; w != nil && w.Contains(pt.API) {
				waived++
				if f := m.FakeNeeded[pkg]; f != nil && f.Contains(pt.API) {
					needFake = true
				}
			} else {
				needImpl = true
			}
		}
		action := ActionStub
		switch {
		case needImpl:
			action = ActionImplement
			p.Implement++
		case needFake:
			action = ActionFake
			p.Fake++
		default:
			p.Stub++
		}
		cur.Add(pt.API)
		wc := metrics.WeightedCompleteness(in, cur, waivedOpts)
		p.Steps = append(p.Steps, Step{
			N:            len(p.Steps) + 1,
			API:          pt.API.Name,
			Action:       action,
			Importance:   pt.Importance,
			Users:        users,
			Waived:       waived,
			Completeness: wc,
			Delta:        wc - prev,
		})
		prev = wc
		p.FinalCompleteness = wc
	}
	return p
}
