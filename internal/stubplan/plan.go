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
// packages already counted as satisfied. The whole curve is one
// metrics.CompletenessCurve call.
func BuildPlan(in *metrics.Input, path []metrics.PathPoint, sys compat.System, m *Matrix) *Plan {
	supported := compat.SupportedSet(sys, path)
	var todo []metrics.PathPoint
	order := make([]linuxapi.API, 0, len(path))
	for _, pt := range path {
		if !supported.Contains(pt.API) {
			todo = append(todo, pt)
			order = append(order, pt.API)
		}
	}
	curve := metrics.CompletenessCurve(in, supported, order,
		metrics.CompletenessOptions{Kind: linuxapi.KindSyscall, Waivable: m.Waivable})
	tallies := tallySteps(in, order, m)

	p := &Plan{
		System:         sys.Name,
		Version:        sys.Version,
		PolicyVersion:  m.PolicyVersion,
		SupportedCount: len(supported),
		PresenceCompleteness: metrics.WeightedCompleteness(in, supported,
			metrics.CompletenessOptions{Kind: linuxapi.KindSyscall}),
		StubAwareCompleteness: curve[0],
		FinalCompleteness:     curve[len(order)],
	}
	for k, pt := range todo {
		t := tallies[k]
		action := ActionStub
		switch {
		case t.needImpl:
			action = ActionImplement
			p.Implement++
		case t.needFake:
			action = ActionFake
			p.Fake++
		default:
			p.Stub++
		}
		p.Steps = append(p.Steps, Step{
			N:            k + 1,
			API:          pt.API.Name,
			Action:       action,
			Importance:   pt.Importance,
			Users:        t.users,
			Waived:       t.waived,
			Completeness: curve[k+1],
			Delta:        curve[k+1] - curve[k],
		})
	}
	return p
}

// tally is what one worklist step's API costs across the corpus.
type tally struct {
	// users counts packages whose footprint holds the API and waived
	// those of them holding a waiver for it.
	users, waived int
	// needFake: some waived user needs a fake; needImpl: some user holds
	// no waiver.
	needFake, needImpl bool
}

// tallySteps tallies every step of order in one pass over the packages,
// converting each package's waiver and fake sets to bitsets once. A
// repeated API shares its first occurrence's tally; one that was never
// interned is in no footprint and keeps a zero tally.
func tallySteps(in *metrics.Input, order []linuxapi.API, m *Matrix) []tally {
	// first maps an intern ID to the 1-based step that first adds it (0:
	// no step); stepFirst maps each step to its API's first step.
	var first []int
	stepFirst := make([]int, len(order))
	for k, api := range order {
		id, ok := linuxapi.InternedID(api)
		if !ok {
			continue
		}
		if int(id) >= len(first) {
			first = append(first, make([]int, int(id)+1-len(first))...)
		}
		if first[id] == 0 {
			first[id] = k + 1
		}
		stepFirst[k] = first[id]
	}
	byFirst := make([]tally, len(order)+1)
	for pkg, fp := range in.Footprints {
		var waived, fake *footprint.BitSet
		if w := m.Waivable[pkg]; w != nil {
			waived = footprint.LookupBits(w)
		}
		if f := m.FakeNeeded[pkg]; f != nil {
			fake = footprint.LookupBits(f)
		}
		fp.ForEach(func(id uint32) {
			if int(id) >= len(first) || first[id] == 0 {
				return
			}
			t := &byFirst[first[id]]
			t.users++
			if waived != nil && waived.HasID(id) {
				t.waived++
				if fake != nil && fake.HasID(id) {
					t.needFake = true
				}
			} else {
				t.needImpl = true
			}
		})
	}
	out := make([]tally, len(order))
	for k, f := range stepFirst {
		out[k] = byFirst[f]
	}
	return out
}
