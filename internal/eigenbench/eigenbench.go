// Package eigenbench ports Hong et al.'s Eigenbench (IISWC 2010) — the
// parameterizable microbenchmark the paper uses to explore the seven
// orthogonal TM characteristics of its Table II: concurrency, working-set
// size, transaction length, pollution, temporal locality, contention and
// predominance.
//
// Per the original design, each thread owns three arrays:
//
//   - hot:  shared between all threads, accessed inside transactions — the
//     only source of true conflicts (knob: contention).
//   - mild: thread-private, accessed inside transactions — the
//     transactional working set (knobs: working-set size, transaction
//     length, pollution, locality).
//   - cold: thread-private, accessed outside transactions (knob:
//     predominance).
//
// All addresses are generated by seeded per-thread PRNGs, so runs are
// deterministic.
package eigenbench

import (
	"math"

	"rtmlab/internal/arch"
	"rtmlab/internal/energy"
	"rtmlab/internal/sim"
	"rtmlab/internal/tm"
)

// Array base addresses (static layout, far apart, below the heap-metadata
// regions). Each thread's mild/cold region gets ~512 MB of address space.
// The per-thread stagger is deliberately NOT a power of two: real mallocs
// are not 16 MB-aligned, and power-of-two spacing would make every
// thread's array alias to the same TinySTM lock-array entries and the same
// cache sets, which no real run exhibits.
const (
	hotBase    uint64 = 1<<31 + 5*arch.PageSize
	mildBase   uint64 = 1 << 32
	coldBase   uint64 = 3 << 32
	threadSpan uint64 = 1<<29 + 45*arch.PageSize
)

// Params configures one Eigenbench run (counts are per transaction unless
// noted).
type Params struct {
	Threads int
	Loops   int // transactions per thread

	HotWords  int // shared hot-array size in words (0 disables hot access)
	MildWords int // per-thread working set in words
	ColdWords int // per-thread non-transactional array in words

	R1, W1 int // hot reads/writes per transaction
	R2, W2 int // mild reads/writes per transaction
	R3, W3 int // cold reads/writes after each transaction (outside)

	Locality float64 // probability of reusing a recent address inside a txn

	// WorkPerAccess models the address-generation and loop instructions
	// surrounding every memory access (cycles, charged to all systems
	// including the sequential baseline).
	WorkPerAccess uint64

	// Warmup is the number of unmeasured warm-up transactions per thread
	// (compulsory-miss amortisation). If zero, Loops/4 is used.
	Warmup int
}

// TxLen returns the transactional memory accesses per transaction.
func (p Params) TxLen() int { return p.R1 + p.W1 + p.R2 + p.W2 }

// ConflictProbability estimates, per Hong et al.'s word-granularity
// formula, the probability that one transaction conflicts with the writes
// of the other N-1 concurrently running transactions: each access hits a
// specific hot word with probability 1/H, and the others expose
// W1*(N-1) written words, so
//
//	P = 1 - (1 - 1/H)^(A1 * W1 * (N-1))
//
// with A1 the hot accesses per transaction. This matches the paper's note
// that the figure is valid at word granularity (TinySTM); RTM's line-level
// detection sees a higher effective contention for the same parameters.
func (p Params) ConflictProbability() float64 {
	if p.HotWords == 0 || p.Threads <= 1 {
		return 0
	}
	a1 := float64(p.R1 + p.W1)
	exponent := a1 * float64(p.W1) * float64(p.Threads-1)
	return 1 - math.Pow(1-1/float64(p.HotWords), exponent)
}

// Default returns the paper's baseline parameters: transactions of 100
// accesses (90 reads / 10 writes) over a private working set, 4 threads,
// zero contention.
func Default(wsBytes int) Params {
	return Params{
		Threads:       4,
		Loops:         600,
		MildWords:     wsBytes / arch.WordSize,
		R2:            90,
		W2:            10,
		WorkPerAccess: 4,
	}
}

// Result summarises one run.
type Result struct {
	Cycles    uint64
	EnergyJ   float64
	Commits   uint64
	Aborts    uint64
	AbortRate float64 // aborts / started transactions
	Instr     uint64
}

// addrGen generates transactional addresses with the configured temporal
// locality: with probability Locality an address is drawn from a small
// history window, otherwise a fresh uniform address is drawn.
type addrGen struct {
	hist [16]uint64
	n    int
	pos  int
}

func (g *addrGen) next(c *tm.Ctx, base uint64, words int, locality float64) uint64 {
	if g.n > 0 && c.P.Rng.Bool(locality) {
		return g.hist[c.P.Rng.Intn(g.n)]
	}
	addr := base + uint64(c.P.Rng.Intn(words))*arch.WordSize
	g.hist[g.pos] = addr
	g.pos = (g.pos + 1) % len(g.hist)
	if g.n < len(g.hist) {
		g.n++
	}
	return addr
}

// Run executes the benchmark on the given system and returns raw metrics
// (the caller computes speedups against a sequential Run). A warm-up pass
// runs first and is excluded from all metrics.
func Run(sys *tm.System, p Params, seed uint64) Result {
	warmup := p.Warmup
	if warmup == 0 {
		warmup = p.Loops / 4
	}
	if warmup > 0 {
		wp := p
		wp.Loops = warmup
		wp.Warmup = -1
		body(sys, wp, seed+0x5eed)
	}

	abortsBefore := sys.Aborts()
	started := sys.Starts()

	res := body(sys, p, seed)

	aborts := sys.Aborts() - abortsBefore
	startedNow := sys.Starts() - started
	r := Result{
		Cycles:  res.Cycles,
		Aborts:  aborts,
		Commits: uint64(p.Threads * p.Loops),
		Instr:   res.TotalInstr(),
	}
	if startedNow > 0 {
		r.AbortRate = float64(aborts) / float64(startedNow)
	}
	report := energy.Compute(sys.Arch, sys.Measure(res, sys.Aborts()-aborts))
	if sys.Obs != nil {
		sys.Obs.Energy(report.Sample("measured", res.Cycles))
	}
	r.EnergyJ = report.Total()
	return r
}

// body executes one (measured or warm-up) pass.
func body(sys *tm.System, p Params, seed uint64) sim.Result {
	return sys.Run(p.Threads, seed, func(c *tm.Ctx) {
		tid := c.P.ID()
		mild := mildBase + uint64(tid)*threadSpan
		cold := coldBase + uint64(tid)*threadSpan
		var gen addrGen
		// Access plans: interleave writes evenly among reads.
		hotPlan := plan(p.R1, p.W1)
		mildPlan := plan(p.R2, p.W2)
		for i := 0; i < p.Loops; i++ {
			work := func() {
				if p.WorkPerAccess > 0 {
					c.P.AddWork(p.WorkPerAccess)
				}
			}
			c.Atomic(func(t tm.Tx) {
				var sink int64
				for _, isWrite := range hotPlan {
					addr := gen.next(c, hotBase, p.HotWords, p.Locality) //rtmvet:ignore Eigenbench draws a fresh address per attempt by design; generator and rng state stay deterministic because retries are scheduler-deterministic
					work()
					if isWrite {
						t.Store(addr, sink+1)
					} else {
						sink += t.Load(addr)
					}
				}
				for _, isWrite := range mildPlan {
					addr := gen.next(c, mild, p.MildWords, p.Locality)
					work()
					if isWrite {
						t.Store(addr, sink+1)
					} else {
						sink += t.Load(addr)
					}
				}
			})
			// Non-transactional phase (predominance knob).
			var sink int64
			for j := 0; j < p.R3; j++ {
				work()
				sink += c.Load(cold + uint64(c.P.Rng.Intn(max(p.ColdWords, 1)))*arch.WordSize)
			}
			for j := 0; j < p.W3; j++ {
				work()
				c.Store(cold+uint64(c.P.Rng.Intn(max(p.ColdWords, 1)))*arch.WordSize, sink)
			}
		}
	})
}

// plan returns a deterministic access pattern of r reads and wr writes with
// the writes spread evenly.
func plan(r, wr int) []bool {
	total := r + wr
	out := make([]bool, total)
	if wr == 0 || total == 0 {
		return out
	}
	stride := float64(total) / float64(wr)
	for i := 0; i < wr; i++ {
		idx := int(float64(i)*stride + stride/2)
		if idx >= total {
			idx = total - 1
		}
		out[idx] = true
	}
	// Ensure exactly wr writes even after rounding collisions.
	count := 0
	for _, b := range out {
		if b {
			count++
		}
	}
	for i := 0; count < wr && i < total; i++ {
		if !out[i] {
			out[i] = true
			count++
		}
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Sequential returns the parameters for the sequential baseline of p: one
// thread doing the whole workload over a same-sized working set.
func (p Params) Sequential() Params {
	q := p
	q.Threads = 1
	q.Loops = p.Loops * p.Threads
	return q
}
