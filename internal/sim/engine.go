// Package sim is the deterministic multicore execution engine. Simulated
// hardware threads are coroutines that yield to a min-clock scheduler at
// every simulated operation; exactly one simulated thread runs at a time,
// and the runnable thread with the smallest local cycle clock always runs
// next (ties broken by thread id). This approximates the wall-clock
// interleaving of real parallel hardware while keeping every run
// reproducible bit-for-bit.
package sim

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/rng"
)

// PauseCycles is the cost of a PAUSE (spin-wait hint) instruction.
const PauseCycles = 10

// Proc is one simulated hardware thread. All methods must be called from
// the thread's body, which runs in its own coroutine (see pull), or
// inline on Run's caller for a single-thread classic region.
type Proc struct {
	id    int
	core  int
	clock uint64
	instr uint64
	eng   *Engine

	// nested is true while the thread waits inside the resume of a
	// thread it handed off to, i.e. while it sits on the resume chain
	// below the running thread (see handoff).
	nested bool

	// sh is the per-thread state of the epoch-synchronized sharded
	// engine (shard.go); nil under the classic min-clock engine.
	sh *procShard

	// Rng is the thread's deterministic PRNG, seeded from the run seed.
	Rng *rng.Rand

	// PreOp, if non-nil, runs before every simulated operation. The TM
	// layer uses it to deliver pending aborts at operation boundaries.
	PreOp func()

	// resume and suspend switch into and out of the thread's coroutine
	// (see pull); nil for an inline single-thread region.
	resume  func() (struct{}, bool)
	suspend func(struct{}) bool

	// spinLoad and spinDone are the wait of a thread inside Spin on the
	// classic engine, nil otherwise. spinV is the value its last Load
	// step read, and spinLoaded says that its check-and-Pause step is
	// next (see spinStep).
	spinLoad   func() int64
	spinDone   func(int64) bool
	spinV      int64
	spinLoaded bool
}

// ID returns the hardware-thread id (0-based).
func (p *Proc) ID() int { return p.id }

// Core returns the physical core this thread is pinned to.
func (p *Proc) Core() int { return p.core }

// Cycles returns the thread's local clock.
func (p *Proc) Cycles() uint64 { return p.clock }

// Engine returns the engine this proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

func (p *Proc) preOp() {
	p.eng.H.Now = p.clock
	if p.PreOp != nil {
		p.PreOp()
	}
}

// scale applies the hyper-threading slowdown while a sibling hardware
// thread shares this core's pipeline.
func (p *Proc) scale(cycles uint64) uint64 {
	e := p.eng
	if e.coreLive[p.core] > 1 {
		return cycles * e.htNum / e.htDen
	}
	return cycles
}

// AddWork models n cycles of computation without a scheduling point
// (cheaper than Work for fine-grained accounting); the cost scales with
// hyper-thread contention like any other op.
func (p *Proc) AddWork(n uint64) {
	p.instr += n
	p.clock += p.scale(n)
}

// Load performs a timed coherent read of the word at addr.
func (p *Proc) Load(addr uint64) int64 {
	if p.ShardActive() {
		return p.shardLoad(addr)
	}
	p.preOp()
	v, cycles := p.eng.H.Load(p.core, addr)
	p.instr++
	p.clock += p.scale(cycles)
	p.yield()
	return v
}

// Store performs a timed coherent write of the word at addr.
func (p *Proc) Store(addr uint64, val int64) {
	if p.ShardActive() {
		p.shardStore(addr, val)
		return
	}
	p.preOp()
	cycles := p.eng.H.Store(p.core, addr, val)
	p.instr++
	p.clock += p.scale(cycles)
	p.yield()
}

// LoadOverlapped performs the cache-state work of a load whose latency is
// hidden under an adjacent independent access (instruction-level
// parallelism), charging a single cycle. The STM layer uses it for
// lock-array reads, which real hardware issues in parallel with the data
// access.
func (p *Proc) LoadOverlapped(addr uint64) int64 {
	if p.ShardActive() {
		return p.shardLoadOverlapped(addr)
	}
	p.preOp()
	v, _ := p.eng.H.Load(p.core, addr)
	p.instr++
	p.clock++
	p.yield()
	return v
}

// StoreTiming performs the timing and coherence work of a store without
// writing a value (see mem.Hierarchy.StoreTiming).
func (p *Proc) StoreTiming(addr uint64) {
	if p.ShardActive() {
		p.shardStoreTiming(addr)
		return
	}
	p.preOp()
	cycles := p.eng.H.StoreTiming(p.core, addr)
	p.instr++
	p.clock += p.scale(cycles)
	p.yield()
}

// Work models n cycles of core-local computation (n instructions).
func (p *Proc) Work(n uint64) {
	if n == 0 {
		return
	}
	if p.ShardActive() {
		p.shardWork(n)
		return
	}
	p.preOp()
	p.instr += n
	p.clock += p.scale(n)
	p.yield()
}

// AddCycles advances the clock by n cycles without executing instructions
// (fixed synchronization costs such as xbegin). It does not yield.
func (p *Proc) AddCycles(n uint64) { p.clock += n }

// AddInstr adds n to the instruction count without advancing time (for
// overlapped bookkeeping instructions).
func (p *Proc) AddInstr(n uint64) { p.instr += n }

// Pause models a PAUSE spin-wait hint.
func (p *Proc) Pause() {
	if p.ShardActive() {
		p.shardPause()
		return
	}
	p.preOp()
	p.instr++
	p.clock += p.scale(PauseCycles)
	p.yield()
}

// yield hands the CPU model to the runnable thread with the smallest
// clock. The fast path (this thread is still the minimum, or it is the
// only live thread) costs two compares and no coroutine switch. While
// e.noYield holds it returns at once: the region is single-threaded,
// or a spin step runs and its caller makes the scheduling test itself.
func (p *Proc) yield() {
	e := p.eng
	if e.noYield || len(e.heap) == 0 || p.less(e.heap[0]) {
		return
	}
	// Someone else is earlier (or equal with a smaller id): switch to it.
	// The ordering check guarantees heap[0] stays the minimum even with p
	// included, so a single replace-at-root (one sift-down) stands in for
	// the push+pop pair.
	e.switches++
	e.next = e.replaceMin(p)
	p.handoff()
}

// less orders procs by (clock, id).
func (p *Proc) less(q *Proc) bool {
	if p.clock != q.clock {
		return p.clock < q.clock
	}
	return p.id < q.id
}

// Spin waits until done accepts a value that load reads. It is exactly
//
//	for { v := load(); if done(v) { return v }; p.Pause() }
//
// load must make exactly one simulated operation of p, as its last
// action, and must not run inside a transaction; done must make none.
// The sharded engine and single-thread regions run that loop as
// written. On the classic engine the wait becomes state in p, and a
// thread whose handoff loop picks p runs p's next step on its own stack
// (see handoff) instead of switching to p's coroutine: a waiter costs
// no coroutine switch until done holds. Every step makes the same
// operations and the same scheduling test as the loop, in the same
// order, so the simulation cannot tell the two apart.
func (p *Proc) Spin(load func() int64, done func(int64) bool) int64 {
	e := p.eng
	if p.sh != nil || e.noYield {
		for {
			v := load()
			if done(v) {
				return v
			}
			p.Pause()
		}
	}
	p.spinLoad, p.spinDone, p.spinLoaded = load, done, false
	for !p.spinSteps() {
		p.handoff()
		if p.spinLoad == nil {
			break // the wait ended in place, on another thread's stack
		}
	}
	return p.spinV
}

// spinStep runs p's next wait step with yields off: the Load, or the
// check and, while done rejects the value, the Pause. It reports
// whether the wait ended, leaving the value in spinV.
//
//rtm:hot
func (p *Proc) spinStep() bool {
	e := p.eng
	if !p.spinLoaded {
		e.noYield = true
		p.spinV = p.spinLoad()
		e.noYield = false
		p.spinLoaded = true
		return false
	}
	if p.spinDone(p.spinV) {
		p.spinLoad, p.spinDone = nil, nil
		return true
	}
	e.noYield = true
	p.Pause()
	e.noYield = false
	p.spinLoaded = false
	return false
}

// spinSteps runs p's wait steps while p stays the scheduler's pick,
// making after each the test p's yield would make. It reports whether
// the wait ended; if not, it has handed the pick on as yield does, and
// e.next is the thread to run.
//
//rtm:hot
func (p *Proc) spinSteps() bool {
	e := p.eng
	for !p.spinStep() {
		if len(e.heap) != 0 && !p.less(e.heap[0]) {
			e.switches++
			e.next = e.replaceMin(p)
			return false
		}
	}
	return true
}

// spinInPlace runs waiter p's steps on the stack of the thread (or
// Run's loop) that picked it, as spinSteps does. A panic in a step
// leaves it naming p, so that no frame of the thread whose stack it
// unwinds, such as an HTM attempt's recover, takes it for its own.
func (p *Proc) spinInPlace() bool {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: thread %d panicked in a spin wait run in place: %v", p.id, r))
		}
	}()
	return p.spinSteps()
}

// handoff runs the thread the scheduler picked (e.next) until the
// scheduler picks p again. Threads resume one another directly, so the
// classic engine's coroutines form a resume chain: Run's loop resumed
// the bottom thread, every thread on the chain waits inside the resume
// of the one above it, and only the top one runs. A pick off the chain
// is resumed from here, one coroutine switch, and p joins the chain. A
// pick on the chain sits below p and cannot be resumed again, so p
// suspends to the thread that resumed it, which runs this loop in turn:
// every thread above the pick suspends down to it, one switch each.
// When a thread p resumed finishes, its coroutine returns here and the
// loop goes on with finish's pick. A pick waiting in Spin is not
// switched to: the loop runs its steps here until its wait ends or it
// hands the pick on. A body panic leaves every resume on the chain and
// reaches Run's caller.
//
//rtm:hot
func (p *Proc) handoff() {
	e := p.eng
	for q := e.next; q != p; q = e.next {
		if q.spinLoad != nil && !q.spinInPlace() {
			continue
		}
		e.coroSwitches++
		if q.nested {
			p.park()
		} else {
			p.nested = true
			q.resume()
			p.nested = false
		}
	}
}

// park suspends the thread's coroutine to the one that resumed it.
func (p *Proc) park() {
	if !p.suspend(struct{}{}) {
		panic("sim: thread coroutine stopped while suspended")
	}
}

// finish marks the thread done and picks the next thread to run; the
// body's coroutine then returns to the thread (or Run's loop) that
// resumed it.
func (p *Proc) finish() {
	if p.sh != nil {
		p.shardFinish()
		return
	}
	e := p.eng
	e.coreLive[p.core]--
	e.next = e.pop()
}

// Engine drives one parallel region.
type Engine struct {
	Cfg *arch.Config
	H   *mem.Hierarchy

	procs []*Proc
	heap  []*Proc
	next  *Proc // the thread the classic engine resumes next; nil ends the region

	// remaining counts the sharded engine's threads whose body has not
	// finished.
	remaining int

	// noYield makes every yield return at once: for the whole of a
	// single-thread region, and while a spin step runs (see spinStep).
	noYield bool

	// Hyper-threading model: when coreLive[c] > 1 the sibling threads
	// share the core pipeline and every op costs htNum/htDen x its solo
	// latency.
	coreLive []int
	htNum    uint64
	htDen    uint64

	// switches counts scheduler handoffs (the yield slow path; in shard
	// mode: thread parks).
	switches uint64

	// coroSwitches counts the coroutine switches the classic engine's
	// handoffs make, resumes and suspends alike (read by tests; never
	// recorded).
	coroSwitches uint64

	// shardParallel is true while shard workers execute the parallel
	// phase of an epoch (shared state frozen). It is toggled only by the
	// coordinator while every worker is quiescent, so reads from worker
	// goroutines are ordered by the wake/done channels.
	shardParallel bool

	// ShardApply, if non-nil, receives DefCustom deferred operations at
	// shard epoch boundaries. The HTM layer installs it to replay
	// conflict-directory probes and abort cleanups.
	ShardApply func(p *Proc, d *ShardDef)

	// ShardRawStore, if non-nil, runs immediately before a plain
	// (non-transactional) store lands at a shard epoch boundary — both
	// the buffered (DefStore) and parked store paths. The HTM layer
	// installs it to kill transactions tracking the line (strong
	// atomicity).
	ShardRawStore func(p *Proc, addr uint64)

	// wakes counts shard worker goroutines woken for a parallel phase
	// (read by tests): the coordinator runs one shard itself and never
	// wakes an idle worker.
	wakes uint64
}

// Result summarises a parallel region.
type Result struct {
	Cycles       uint64   // region wall time: max over threads
	ThreadCycles []uint64 // per-thread busy cycles
	Instr        []uint64 // per-thread instruction counts
	MemStats     mem.Stats
}

// TotalInstr returns the summed instruction count.
func (r Result) TotalInstr() uint64 {
	var t uint64
	for _, n := range r.Instr {
		t += n
	}
	return t
}

// Run executes body on n simulated hardware threads over the hierarchy h
// and returns the region metrics. Threads are pinned round-robin to
// physical cores (threads 0..cores-1 get their own core; beyond that,
// hyper-thread siblings share cores, as in the paper's setup). setup, if
// non-nil, is called with each proc before execution starts (the TM layer
// installs per-thread state there).
func Run(cfg *arch.Config, h *mem.Hierarchy, n int, seed uint64, setup func(*Proc), body func(*Proc)) Result {
	if n < 1 || n > cfg.MaxThreads() {
		panic(fmt.Sprintf("sim: thread count %d out of range [1,%d]", n, cfg.MaxThreads()))
	}
	sharded := cfg.Shard.Shards != 0
	e := &Engine{
		Cfg:       cfg,
		H:         h,
		procs:     make([]*Proc, 0, n),
		heap:      make([]*Proc, 0, n),
		remaining: n,
		noYield:   n == 1 && !sharded,
		coreLive:  make([]int, cfg.Cores),
		htNum:     31,
		htDen:     20,
	}
	if cfg.HTFactor > 0 {
		e.htNum = uint64(cfg.HTFactor * 100)
		e.htDen = 100
	}
	before := h.Stats
	h.ResetRegion()
	for i := 0; i < n; i++ {
		p := &Proc{
			id:   i,
			core: i % cfg.Cores,
			eng:  e,
			Rng:  rng.New(seed*0x9e3779b9 + uint64(i) + 1),
		}
		e.procs = append(e.procs, p)
		e.coreLive[p.core]++
	}
	// Shard state is attached before setup so the TM layers can install
	// their shard-mode hooks when they see p.Sharded().
	var se *shardEngine
	if sharded {
		se = newShardEngine(e)
	}
	for _, p := range e.procs {
		if setup != nil {
			setup(p)
		}
	}
	if e.noYield {
		// Single-threaded regions need no scheduling: run the body inline
		// on the caller's goroutine, skipping the coroutines and handoffs
		// entirely. Every op's yield takes the e.noYield fast path.
		p := e.procs[0]
		body(p)
		e.coreLive[p.core]--
	} else {
		for _, p := range e.procs {
			p.resume, _ = pull(func(suspend func(struct{}) bool) {
				p.suspend = suspend
				body(p)
				p.finish()
			})
		}
		if se != nil {
			se.run()
			for _, p := range e.procs {
				h.Stats = h.Stats.Add(p.sh.stats)
				e.switches += p.sh.parks
			}
		} else {
			// Every thread but the first starts in the heap. The loop
			// resumes the bottom of the resume chain (see handoff): thread
			// 0 first, then, each time the bottom thread finishes,
			// finish's pick, whose Spin steps, if it waits, run here
			// first. A panic in a body leaves resume and reaches Run's
			// caller; the other threads stay suspended.
			for i := n - 1; i >= 1; i-- {
				e.push(e.procs[i])
			}
			for next := e.procs[0]; next != nil; next = e.next {
				if next.spinLoad != nil && !next.spinInPlace() {
					continue
				}
				next.resume()
			}
		}
	}

	res := Result{
		MemStats:     h.Stats.Sub(before),
		ThreadCycles: make([]uint64, 0, n),
		Instr:        make([]uint64, 0, n),
	}
	for _, p := range e.procs {
		res.ThreadCycles = append(res.ThreadCycles, p.clock)
		res.Instr = append(res.Instr, p.instr)
		if p.clock > res.Cycles {
			res.Cycles = p.clock
		}
	}
	if rec := h.Rec; rec != nil {
		d := res.MemStats
		rec.Add("mem:l1.miss", d.L1Accesses-d.L1Hits)
		rec.Add("mem:l2.miss", d.L2Accesses-d.L2Hits)
		rec.Add("mem:l3.miss", d.L3Accesses-d.L3Hits)
		rec.Add("mem:l1.evict", d.L1Evictions)
		rec.Add("mem:l2.evict", d.L2Evictions)
		rec.Add("mem:l3.evict", d.L3Evictions)
		rec.Add("mem:invalidations", d.Invalidations)
		rec.Add("mem:writebacks", d.Writebacks)
		rec.Add("sim:switches", e.switches)
		rec.Add("sim:regions", 1)
		if se != nil {
			rec.Add("sim:epochs", se.epochs)
			rec.Add("sim:boundary.ops", se.boundaryOps)
			var opParks, localOps, localClaims uint64
			for _, p := range e.procs {
				opParks += p.sh.opParks
				localOps += p.sh.localOps
				localClaims += p.sh.localClaims
				rec.ShardThreadOps(p.id, p.sh.opParks, p.sh.localOps)
			}
			rec.Add("sim:parks.op", opParks)
			rec.Add("sim:local.ops", localOps)
			rec.Add("sim:slice.claims", localClaims)
		}
		// Attribute the region to the causal profile (busy cycles per
		// thread; the longest thread claims the critical path), then
		// rebase: thread clocks restart at zero every region, so the
		// recorder's timeline must advance past this one.
		rec.RegionThreads(res.ThreadCycles)
		rec.AdvanceBase(res.Cycles)
	}
	return res
}

// push inserts p into the runnable min-heap.
func (e *Engine) push(p *Proc) {
	e.heap = append(e.heap, p)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heap[i].less(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

// pop removes and returns the minimum runnable proc, or nil.
func (e *Engine) pop() *Proc {
	if len(e.heap) == 0 {
		return nil
	}
	min := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	e.siftDown(0)
	return min
}

// replaceMin swaps p in for the current minimum and returns the old
// minimum. Caller guarantees the heap is non-empty and heap[0] orders
// before p, so the result is identical to push(p) followed by pop() at
// roughly half the heap work.
func (e *Engine) replaceMin(p *Proc) *Proc {
	min := e.heap[0]
	e.heap[0] = p
	e.siftDown(0)
	return min
}

// siftDown restores the heap property below index i.
func (e *Engine) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(e.heap) && e.heap[l].less(e.heap[small]) {
			small = l
		}
		if r < len(e.heap) && e.heap[r].less(e.heap[small]) {
			small = r
		}
		if small == i {
			return
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
}
