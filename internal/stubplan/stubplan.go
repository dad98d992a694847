// Package stubplan classifies every API in a binary's *dynamic*
// footprint as required-for-progress, stubbable, or fakeable, and turns
// the per-binary verdict matrix into stub-aware compatibility metrics
// and an ordered implement-vs-stub worklist per target system.
//
// The paper's Table 6/7 numbers are presence-only: an API counts against
// a target if any binary's footprint contains it. Loupe showed this
// overstates the real engineering cost — many APIs can return -ENOSYS
// (a stub) or fake success without effect (a fake) and the application
// still makes progress. We measure that per binary instead of assuming
// it: each executable's entry path runs under the emulator with a fault-
// injection SyscallPolicy that makes one API misbehave per run, and we
// observe whether the path still completes.
//
// A binary needs a few hundred such runs, but none re-executes from the
// entry point: the baseline is recorded once (emu.Record) and every stub
// or fake run is an emu.Replay of it that visits only the occurrences of
// the one call it faults, and executes instructions only from an
// injected fault until its state rejoins the baseline's. All of a
// binary's fault runs together cost about half a baseline run more
// (Matrix.Stats.Steps counts every executed instruction). The emulator
// runs the binaries' ELF images; nothing here analyzes them.
//
// Each baseline doubles as the paper's §2.3 spot check: every API it
// observes must lie in its package's static footprint
// (Matrix.Stats.StaticMisses counts those that do not).
//
// Like Loupe's hand-written per-syscall stub/fake tables, the policy
// encodes failure semantics the binary alone cannot express: a fault is
// fatal when glibc startup cannot absorb it (calls issued inside
// __libc_start_main abort the program on -ENOSYS; faking success on a
// resource-materializing call leaves startup holding a resource that
// does not exist) and when the call is process termination (a stubbed
// exit_group would return into dead code). Everything the run proves
// survivable under those semantics is a measured verdict, cached per
// binary content hash + policy version so warm builds re-emulate
// nothing.
package stubplan

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/anacache"
	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/emu"
	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// PolicyVersion versions the fault-injection model. Any change to what
// the policy considers fatal — the startup-critical rule, the resource
// set, the termination set, the injected errno — must bump it so cached
// verdicts from the old model are invalidated rather than trusted.
const PolicyVersion = 1

// enosys is the injected stub return value (-ENOSYS).
const enosys = -38

// Verdict is the measured tolerance class of one API for one binary.
type Verdict string

const (
	// VerdictRequired: the entry path completes only when the API
	// genuinely works — neither a stub nor a fake survives.
	VerdictRequired Verdict = "required"
	// VerdictStubbable: returning -ENOSYS for every occurrence still
	// completes the entry path; the API costs a target nothing (kernels
	// stub unimplemented syscalls for free).
	VerdictStubbable Verdict = "stubbable"
	// VerdictFakeable: -ENOSYS is fatal but faking success without
	// effect completes the path; the API costs a trivial shim.
	VerdictFakeable Verdict = "fakeable"
)

// worse orders verdicts by implementation cost; aggregation over
// binaries takes the most demanding class. It is symmetric and fails
// closed: anything but the two tolerant classes counts as required.
func worse(a, b Verdict) Verdict {
	switch {
	case a == VerdictStubbable && b == VerdictStubbable:
		return VerdictStubbable
	case (a == VerdictStubbable || a == VerdictFakeable) && (b == VerdictStubbable || b == VerdictFakeable):
		return VerdictFakeable
	default:
		return VerdictRequired
	}
}

// terminationCalls must actually terminate: a stubbed or faked exit
// returns into whatever bytes follow the call site.
var terminationCalls = map[string]bool{"exit": true, "exit_group": true}

// resourceCritical lists calls whose faked success leaves startup
// holding a resource that was never materialized — a fd, a mapping, a
// child, an address-space change the subsequent code dereferences.
// Faking these during libc startup is fatal; faking them later is the
// application's problem and observable in the run. The set is curated
// the way Loupe curated its per-syscall fake implementations.
var resourceCritical = map[string]bool{
	"open": true, "openat": true, "openat2": true, "creat": true,
	"read": true, "pread64": true, "readv": true,
	"mmap": true, "brk": true, "mprotect": true, "mremap": true,
	"clone": true, "clone3": true, "fork": true, "vfork": true, "execve": true, "execveat": true,
	"socket": true, "accept": true, "accept4": true, "pipe": true, "pipe2": true,
	"epoll_create": true, "epoll_create1": true,
	"eventfd": true, "eventfd2": true, "timerfd_create": true,
	"signalfd": true, "signalfd4": true,
	"inotify_init": true, "inotify_init1": true, "memfd_create": true,
	"shmget": true, "shmat": true,
}

// startupSym is the frame symbol marking glibc initialization: faults
// there hit code the application cannot guard with its own error
// handling.
const startupSym = "__libc_start_main"

// stubFatal decides whether injecting -ENOSYS at this occurrence kills
// the program: startup-critical calls and termination calls cannot
// absorb it; everything else propagates an error the straight-line
// caller survives.
func stubFatal(ctx emu.SyscallContext, name string) bool {
	return ctx.Sym == startupSym || terminationCalls[name]
}

// fakeFatal decides whether faking success at this occurrence kills the
// program: termination must terminate, and startup cannot run on
// resources that were never materialized.
func fakeFatal(ctx emu.SyscallContext, name string) bool {
	if terminationCalls[name] {
		return true
	}
	return ctx.Sym == startupSym && resourceCritical[name]
}

// BinaryVerdicts is the measured verdict set for one executable.
type BinaryVerdicts struct {
	// Completed reports whether the unfaulted baseline run finished its
	// entry path; when false no verdicts exist and Stopped says why
	// (including which binary and offset hit the stop — load-bearing
	// for diagnosing fault-injection replays).
	Completed bool   `json:"completed"`
	Stopped   string `json:"stopped,omitempty"`
	// Verdicts maps syscall name to its measured class, for every
	// syscall the baseline run observed with a known number.
	Verdicts map[string]Verdict `json:"verdicts,omitempty"`
}

// valid reports whether a verdict set read back from the cache can be
// trusted: every verdict is one of the three classes and names a system
// call with a number. Anything else is a corrupt record, which
// BuildMatrix re-emulates and overwrites like a miss.
func (bv *BinaryVerdicts) valid() bool {
	for name, v := range bv.Verdicts {
		switch v {
		case VerdictRequired, VerdictStubbable, VerdictFakeable:
		default:
			return false
		}
		if linuxapi.SyscallByName(name) == nil {
			return false
		}
	}
	return true
}

// VerdictTag is the anacache validation tag for verdict records: the
// analysis tag (analysis version + extraction options decide the code
// the emulator sees) plus the policy version.
func VerdictTag(opts footprint.Options) string {
	return fmt.Sprintf("%s policy=%d", anacache.Tag(opts), PolicyVersion)
}

// EmulateVerdicts measures one analyzed executable's verdict set: the
// verdicts of its binary, a.Bin. runs counts the baseline plus every stub
// and fake run.
func EmulateVerdicts(m *emu.Machine, a *footprint.Analysis) (*BinaryVerdicts, int) {
	bv, runs, _ := emulateVerdicts(m, a.Bin)
	return bv, runs
}

// emulateVerdicts measures one executable image's verdict set: a
// baseline run, then per observed syscall a stub run (-ENOSYS injected
// for every occurrence) and, only if the stub run dies, a fake run
// (success injected). The baseline is an emu.Record and every stub and
// fake run an emu.Replay of it at the faulted call's number. It also
// returns the baseline's trace (nil when the binary cannot be recorded).
func emulateVerdicts(m *emu.Machine, bin *elfx.Binary) (*BinaryVerdicts, int, *emu.Trace) {
	rec, err := m.Record(bin)
	if err != nil {
		return &BinaryVerdicts{Stopped: "run error: " + err.Error()}, 1, nil
	}
	runs := 1
	replay := func(name string, policy func(string) emu.SyscallPolicy) bool {
		runs++
		tr, err := m.Replay(rec, int64(linuxapi.SyscallByName(name).Num), policy(name))
		return err == nil && tr.Completed()
	}

	base := rec.Trace
	out := &BinaryVerdicts{Completed: base.Completed(), Stopped: base.Stopped}
	if !out.Completed {
		return out, runs, base
	}
	out.Stopped = ""

	targets := faultTargets(base)
	out.Verdicts = make(map[string]Verdict, len(targets))
	for _, name := range targets {
		switch {
		case replay(name, stubPolicy):
			out.Verdicts[name] = VerdictStubbable
		case replay(name, fakePolicy):
			out.Verdicts[name] = VerdictFakeable
		default:
			out.Verdicts[name] = VerdictRequired
		}
	}
	return out, runs, base
}

// faultTargets lists, sorted, every syscall the baseline observed with a
// known number. Unknown-number occurrences (untracked dispatch) are
// unattributable and never faulted.
func faultTargets(base *emu.Trace) []string {
	names := make(map[string]bool)
	for _, ev := range base.Events {
		if !ev.KnownNum {
			continue
		}
		if d := linuxapi.SyscallByNum(int(ev.Num)); d != nil {
			names[d.Name] = true
		}
	}
	targets := make([]string, 0, len(names))
	for name := range names {
		targets = append(targets, name)
	}
	sort.Strings(targets)
	return targets
}

// stubPolicy injects -ENOSYS at every occurrence of syscall name.
func stubPolicy(name string) emu.SyscallPolicy {
	return inject(name, enosys, stubFatal, "-ENOSYS")
}

// fakePolicy fakes success at every occurrence of syscall name.
func fakePolicy(name string) emu.SyscallPolicy {
	return inject(name, 0, fakeFatal, "fake success")
}

// inject returns a policy answering ret at every occurrence of syscall
// name, or stopping the run with a fault where fatal says the program
// cannot absorb the injected result; every other call gets the default
// (a replay at name's number never asks about one).
func inject(name string, ret int64, fatal func(emu.SyscallContext, string) bool, what string) emu.SyscallPolicy {
	num := linuxapi.SyscallByName(name).Num
	return func(ctx emu.SyscallContext) emu.SyscallResult {
		if !ctx.Event.KnownNum || int(ctx.Event.Num) != num {
			return emu.SyscallResult{}
		}
		if fatal(ctx, name) {
			return emu.SyscallResult{Stop: "fault: " + what + " fatal for " + name + " (" + frameLabel(ctx) + ")"}
		}
		return emu.SyscallResult{Ret: ret}
	}
}

func frameLabel(ctx emu.SyscallContext) string {
	if ctx.Sym == "" {
		return "entry code"
	}
	return "via " + ctx.Sym
}

// Stats counts what a matrix build did — the numbers the smoke gate and
// /metrics assert on ("warm builds perform zero emulations").
type Stats struct {
	// Binaries is the number of executables covered by the matrix.
	Binaries uint64 `json:"binaries"`
	// Emulations is the number of emulator runs performed (0 when every
	// verdict came from the cache): per emulated executable, one baseline
	// plus each stub and fake run.
	Emulations uint64 `json:"emulations"`
	// Steps is the number of emulator instructions actually executed,
	// baselines and replays together. A replay steps only where its
	// injected results make it differ from the baseline, so Steps stays
	// within a small multiple of the baselines' own steps; a replay that
	// stopped rejoining its baseline would show up here and nowhere else.
	Steps uint64 `json:"steps"`
	// CacheHits / CacheMisses count verdict-cache lookups.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Inconclusive counts executables whose baseline run did not
	// complete; their packages get no waivers.
	Inconclusive uint64 `json:"inconclusive"`
	// StaticMisses counts, over the executables this build emulated,
	// the APIs a baseline run observed outside its package's static
	// footprint. The paper's §2.3 invariant (static ⊇ dynamic) makes it
	// zero; executables whose verdicts came from the cache are not
	// emulated and not checked.
	StaticMisses uint64 `json:"static_misses"`
}

// Matrix aggregates per-binary verdicts to per-package waiver sets — the
// form the stub-aware metrics consume.
type Matrix struct {
	PolicyVersion int `json:"policy_version"`
	// Waivable maps package name to the syscall APIs the package's
	// emulated binaries all tolerate as a stub or fake. An API absent
	// here is either required by some binary, dynamically unobserved
	// (static-only: conservative, no waiver), or the package had an
	// inconclusive or script-only binary set.
	Waivable map[string]footprint.Set `json:"-"`
	// FakeNeeded marks the subset of Waivable entries where at least
	// one binary needs fake success (-ENOSYS alone is fatal for it).
	FakeNeeded map[string]footprint.Set `json:"-"`
	Stats      Stats                    `json:"stats"`
}

// Options tune BuildMatrix.
type Options struct {
	// Cache persists verdicts across processes; nil falls back to the
	// study's analysis cache, and if that is nil too every build
	// re-emulates.
	Cache *anacache.Cache
	// Workers bounds emulation concurrency (default: GOMAXPROCS).
	Workers int
}

// BuildMatrix computes (or loads from cache) the verdict matrix for
// every executable in the study's corpus. The result is deterministic:
// aggregation runs in sorted package order over content-addressed
// per-binary verdicts, so two processes over the same corpus produce
// identical matrices whether verdicts were emulated or cache-loaded.
func BuildMatrix(s *core.Study, opts Options) *Matrix {
	cache := opts.Cache
	if cache == nil {
		cache = s.Cache
	}
	tag := VerdictTag(s.Opts)

	jobs := executables(s)

	m := &Matrix{
		PolicyVersion: PolicyVersion,
		Waivable:      make(map[string]footprint.Set),
		FakeNeeded:    make(map[string]footprint.Set),
	}
	m.Stats.Binaries = uint64(len(jobs))

	results := make([]*BinaryVerdicts, len(jobs))
	var emulations, steps, hits, misses, staticMisses atomic.Uint64

	// Cache-resolved binaries never touch the emulator or the resolver;
	// opening the library images (EnsureEmulatable) is paid only when at
	// least one binary actually needs emulating.
	var emuOnce sync.Once
	prepare := func() { s.EnsureEmulatable() }

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			machine := emu.New(s.Resolver)
			for i := range next {
				j := jobs[i]
				key := anacache.Key(j.data)
				if cache != nil {
					var bv BinaryVerdicts
					if cache.GetVerdicts(key, tag, &bv) && bv.valid() {
						hits.Add(1)
						results[i] = &bv
						continue
					}
					misses.Add(1)
				}
				emuOnce.Do(prepare)
				bv, runs, n, outside := emulateOne(machine, j.path, j.data, s.Input.Footprints[j.pkg])
				emulations.Add(uint64(runs))
				steps.Add(n)
				staticMisses.Add(uint64(outside))
				if cache != nil {
					cache.PutVerdicts(key, tag, bv)
				}
				results[i] = bv
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	m.Stats.Emulations = emulations.Load()
	m.Stats.Steps = steps.Load()
	m.Stats.CacheHits = hits.Load()
	m.Stats.CacheMisses = misses.Load()
	m.Stats.StaticMisses = staticMisses.Load()

	// Aggregate per package in job order (sorted by package): the worst
	// verdict across a package's binaries decides each API's class; an
	// inconclusive binary poisons its whole package (no waivers — we
	// cannot know what its entry path needs).
	perPkg := make(map[string]map[string]Verdict)
	poisoned := make(map[string]bool)
	for i, j := range jobs {
		bv := results[i]
		if bv == nil || !bv.Completed {
			m.Stats.Inconclusive++
			poisoned[j.pkg] = true
			continue
		}
		agg := perPkg[j.pkg]
		if agg == nil {
			agg = make(map[string]Verdict)
			perPkg[j.pkg] = agg
		}
		for name, v := range bv.Verdicts {
			if prev, ok := agg[name]; ok {
				agg[name] = worse(prev, v)
			} else {
				agg[name] = v
			}
		}
	}
	for pkg, agg := range perPkg {
		if poisoned[pkg] {
			continue
		}
		waiv := make(footprint.Set)
		fake := make(footprint.Set)
		for name, v := range agg {
			switch v {
			case VerdictStubbable:
				waiv.Add(linuxapi.Sys(name))
			case VerdictFakeable:
				api := linuxapi.Sys(name)
				waiv.Add(api)
				fake.Add(api)
			}
		}
		if len(waiv) > 0 {
			m.Waivable[pkg] = waiv
		}
		if len(fake) > 0 {
			m.FakeNeeded[pkg] = fake
		}
	}
	return m
}

// emulateOne measures one executable on a worker's machine and returns
// its verdicts, emulator runs, executed instructions, and the number of
// APIs its baseline observed outside static, its package's footprint.
// The image is opened here and never run again, so its decode arrays are
// dropped; the libraries' arrays stay for the worker's next executable.
func emulateOne(m *emu.Machine, path string, data []byte, static *footprint.BitSet) (*BinaryVerdicts, int, uint64, int) {
	bin, err := elfx.Open(path, data)
	if err != nil {
		return &BinaryVerdicts{Completed: false, Stopped: "unparseable: " + err.Error()}, 0, 0, 0
	}
	before := m.Executed()
	bv, runs, base := emulateVerdicts(m, bin)
	m.Forget(bin)
	outside := 0
	if base != nil {
		for api := range base.APIs() {
			if !static.Contains(api) {
				outside++
			}
		}
	}
	return bv, runs, m.Executed() - before, outside
}

// job is one executable of the corpus.
type job struct {
	pkg  string
	path string
	data []byte
}

// executables lists the corpus's executables in sorted package order.
func executables(s *core.Study) []job {
	var jobs []job
	for _, pkg := range sortedNames(s) {
		for _, f := range s.Corpus.Repo.Get(pkg).Files {
			if class, _ := elfx.Classify(f.Data); class == elfx.ClassELFExec || class == elfx.ClassELFStatic {
				jobs = append(jobs, job{pkg: pkg, path: f.Path, data: f.Data})
			}
		}
	}
	return jobs
}

func sortedNames(s *core.Study) []string {
	names := s.Corpus.Repo.Names()
	sort.Strings(names)
	return names
}
