// Package stamp ports the STAMP transactional benchmark suite (Cao Minh
// et al., IISWC 2008) to the simulated machine: bayes, genome, intruder,
// kmeans, labyrinth, ssca2, vacation and yada, each programmed against the
// tm facade exactly as the C originals are programmed against tm.h.
//
// Every application self-validates its output (the suite's -c flag), so
// the ports double as integration tests of the whole TM stack.
//
// Where the original relies on heavyweight numeric machinery that is
// orthogonal to its memory/transaction behaviour (bayes' adtree scoring,
// yada's geometric predicates), the port substitutes a surrogate kernel
// with the same transactional footprint — transaction length, read/write
// set sizes, working-set size and conflict structure — as characterised in
// the paper's Section IV. The substitutions are documented per benchmark
// and in DESIGN.md.
package stamp

import (
	"rtmlab/internal/arch"
	"rtmlab/internal/energy"
	"rtmlab/internal/mem"
	"rtmlab/internal/perf"
	"rtmlab/internal/sim"
	"rtmlab/internal/tm"
)

// Benchmark is one STAMP application instance. Implementations carry
// their input parameters; Setup builds the input on the system's heap
// (sequentially), Parallel runs the region of interest on n threads and
// Validate checks the output.
type Benchmark interface {
	Name() string
	Setup(c *tm.Ctx, seed uint64) // sequential, on thread 0
	Parallel(sys *tm.System, threads int, seed uint64)
	Validate(sys *tm.System) error // untimed, via sys.H.Peek
}

// Result captures one benchmark run.
type Result struct {
	Name    string
	Backend tm.Backend
	Threads int

	SetupCycles uint64
	Cycles      uint64 // region of interest (all parallel phases)
	EnergyJ     float64
	Instr       uint64

	Starts    uint64 // attempted transactions
	Commits   uint64
	Aborts    uint64
	AbortRate float64
	Fallbacks uint64

	// Abort breakdown in the paper's Fig. 12 categories.
	ConflictOrReadCap uint64 // data conflicts + L3 read-set evictions - lock
	WriteCapacity     uint64
	Lock              uint64 // serialisation-lock aborts
	Misc3             uint64 // page faults, explicit, nesting
	Misc5             uint64 // interrupts

	Mem      mem.Stats         // region-of-interest memory-hierarchy counts
	Counters map[string]uint64 // full counter snapshot delta
}

// Run executes b once on a fresh Haswell machine under the given
// backend/threads and returns metrics plus the validation error (nil when
// the output checks out). cfgMod, if non-nil, runs between building the
// system and the benchmark's setup: it may set system fields (the
// recorder, the heap, MaxRetries) and never sys.Arch, which the machine
// was already built from. A run on any other machine builds its system
// with tm.NewSystem and calls RunOn.
func Run(b Benchmark, backend tm.Backend, threads int, seed uint64, cfgMod func(sys *tm.System)) (Result, error) {
	sys := tm.NewSystem(arch.Haswell(), backend)
	if cfgMod != nil {
		cfgMod(sys)
	}
	return RunOn(sys, b, threads, seed)
}

// RunOn executes b once on sys, a freshly built system, with the given
// thread count, and returns metrics plus the validation error.
func RunOn(sys *tm.System, b Benchmark, threads int, seed uint64) (Result, error) {
	setup := sys.Run(1, seed, func(c *tm.Ctx) { b.Setup(c, seed) })

	countersBefore := sys.Counters.Snapshot()
	abortsBefore := sys.Aborts()
	startsBefore := sys.Starts()
	commitsBefore := sys.Commits()

	var roi sim.Result
	var measure energy.Measure
	// Parallel is responsible for running sys.Run itself (apps can have
	// several phases); it accumulates region metrics through the hooks
	// below.
	acc := &roiAccum{}
	sys.RegionHook = acc.add
	b.Parallel(sys, threads, seed)
	sys.RegionHook = nil
	roi = acc.total()
	measure = energy.Measure{
		Cycles:       roi.Cycles,
		ThreadCycles: acc.threadCycles,
		Instr:        roi.TotalInstr(),
		Mem:          roi.MemStats,
		Aborts:       sys.Aborts() - abortsBefore,
	}

	report := energy.Compute(sys.Arch, measure)
	if sys.Obs != nil {
		sys.Obs.Energy(report.Sample("roi", roi.Cycles))
	}
	res := Result{
		Name:        b.Name(),
		Backend:     sys.Backend,
		Threads:     threads,
		SetupCycles: setup.Cycles,
		Cycles:      roi.Cycles,
		EnergyJ:     report.Total(),
		Instr:       roi.TotalInstr(),
		Starts:      sys.Starts() - startsBefore,
		Commits:     sys.Commits() - commitsBefore,
		Aborts:      sys.Aborts() - abortsBefore,
		Fallbacks:   sys.Counters.Get("tm:fallback"),
		Mem:         roi.MemStats,
	}
	if res.Starts > 0 {
		res.AbortRate = float64(res.Aborts) / float64(res.Starts)
	}
	res.Counters = sys.Counters.Snapshot()
	for k, v := range res.Counters {
		res.Counters[k] = v - countersBefore[k]
	}
	fillBreakdown(&res)
	return res, b.Validate(sys)
}

// roiAccum sums metrics across the parallel phases of one run.
type roiAccum struct {
	cycles       uint64
	instr        []uint64
	threadCycles []uint64
	mem          mem.Stats
}

func (a *roiAccum) add(r sim.Result) {
	a.cycles += r.Cycles
	for i, c := range r.ThreadCycles {
		if i >= len(a.threadCycles) {
			a.threadCycles = append(a.threadCycles, 0)
			a.instr = append(a.instr, 0)
		}
		a.threadCycles[i] += c
		a.instr[i] += r.Instr[i]
	}
	a.mem = a.mem.Add(r.MemStats)
}

func (a *roiAccum) total() sim.Result {
	return sim.Result{
		Cycles:       a.cycles,
		ThreadCycles: a.threadCycles,
		Instr:        a.instr,
		MemStats:     a.mem,
	}
}

// fillBreakdown derives the Fig. 12 abort categories from the counters.
func fillBreakdown(r *Result) {
	c := r.Counters
	lockConfl := c["tm:abort.lock.conflict"]
	r.Lock = c["tm:abort.lock"]
	r.ConflictOrReadCap = c["htm:abort.conflict"] + c["htm:abort.read-capacity"] - lockConfl
	r.WriteCapacity = c["htm:abort.write-capacity"]
	r.Misc3 = c[perf.RTMAbortedMisc3] - c["tm:abort.lock.explicit"]
	r.Misc5 = c[perf.RTMAbortedMisc5]
}

// Registry lists the suite in the paper's order.
func Registry(scale Scale) []Benchmark {
	return []Benchmark{
		NewBayes(scale),
		NewGenome(scale),
		NewIntruder(scale, false),
		NewKMeans(scale),
		NewLabyrinth(scale),
		NewSSCA2(scale),
		NewVacation(scale, false),
		NewYada(scale),
	}
}

// Scale selects input sizes: Test (CI-sized), Small (quick experiments) or
// Full (figure-quality runs, still simulator-sized versions of the
// paper's recommended inputs).
type Scale int

const (
	Test Scale = iota
	Small
	Full
)
