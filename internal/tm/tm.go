// Package tm is the unified transactional-memory facade: one atomic-block
// API over interchangeable concurrency-control backends, mirroring STAMP's
// tm.h macro layer (TM_BEGIN / TM_SHARED_READ / TM_SHARED_WRITE /
// TM_END).
//
// Backends:
//
//   - Seq: no synchronization — the sequential (non-TM) baseline every
//     figure in the paper normalises against.
//   - Lock: one global ticket spinlock around each atomic block.
//   - STM: a software TM (internal/stm: TinySTM, TL2 or NOrec) with
//     retry-on-abort.
//   - HTM: Haswell RTM (internal/htm) with the paper's Algorithm 1 —
//     transactions read the serialisation lock after xbegin (adding it to
//     their read set), explicitly abort if it is held, fall back to taking
//     the lock as a writer after MaxRetries failures, and wait for the
//     lock to be free before retrying. Lock acquisition by a fallback
//     thread conflict-aborts every running transaction through the lock's
//     cache line ("lock aborts", Fig. 12).
//   - HTMBare: RTM with plain retry and no fallback lock, used by the
//     Table I overhead microbenchmark.
//   - Hybrid: RTM with a software-transaction fallback instead of the
//     serialisation lock.
//
// Every backend runs its atomic blocks through the one loop in policy.go;
// a backend is only the policy value NewSystem looks up for it.
package tm

import (
	"fmt"
	"time"

	"rtmlab/internal/alloc"
	"rtmlab/internal/arch"
	"rtmlab/internal/energy"
	"rtmlab/internal/htm"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/perf"
	"rtmlab/internal/sim"
	"rtmlab/internal/stm"
	"rtmlab/internal/vm"
)

// Backend selects the concurrency-control mechanism.
type Backend uint8

const (
	Seq Backend = iota
	Lock
	STM
	HTM
	HTMBare
	Hybrid
)

func (b Backend) String() string {
	switch b {
	case Seq:
		return "seq"
	case Lock:
		return "lock"
	case STM:
		return "tinystm"
	case HTM:
		return "rtm"
	case HTMBare:
		return "rtm-bare"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("backend(%d)", uint8(b))
	}
}

// DefaultMaxRetries is the paper's retry budget before falling back to the
// serialisation lock ("when transactions fail more than eight times").
const DefaultMaxRetries = 8

// xabortRestart is the explicit-abort code used by Tx.Restart.
const xabortRestart uint8 = 0xAB

// System owns one simulated machine plus the TM runtime for one backend.
type System struct {
	Arch *arch.Config // the machine it was built from; final after NewSystem
	H    *mem.Hierarchy
	PT   *vm.PageTable
	Heap *alloc.Heap

	Backend    Backend
	MaxRetries int

	HTM      *htm.System
	STM      *stm.System
	Counters *perf.Set

	policy policy
	pools  []*alloc.Pool
	ctxs   []*Ctx

	// RegionHook, if set, observes every parallel region's metrics (the
	// stamp runner accumulates region-of-interest totals with it).
	RegionHook func(sim.Result)

	// Obs, if set, is the flight recorder receiving commit/abort events,
	// histograms and the per-site abort matrix. Set it with SetRecorder so
	// the memory hierarchy (and through it the htm/stm/sim layers) sees
	// the same recorder.
	Obs *obs.Recorder
}

// SetRecorder attaches a flight recorder to the system and its simulated
// machine (nil detaches). All layers share the one recorder: tm emits
// transaction events, mem/htm/stm/sim reach it through H.Rec.
func (s *System) SetRecorder(r *obs.Recorder) {
	s.Obs = r
	s.H.Rec = r
}

// NewSystem builds a fresh machine (hierarchy, page table, heap) and TM
// runtime for the given backend. Every layer counts into Counters, one
// set per machine: HTM.Counters and STM.Counters are the same set.
func NewSystem(cfg *arch.Config, backend Backend) *System {
	h := mem.New(cfg)
	pt := vm.NewPageTable()
	s := &System{
		Arch:       cfg,
		H:          h,
		PT:         pt,
		Heap:       alloc.NewHeap(pt),
		Backend:    backend,
		MaxRetries: DefaultMaxRetries,
		Counters:   perf.NewSet(cfg.MaxThreads()),
		policy:     policies[backend],
		pools:      make([]*alloc.Pool, cfg.MaxThreads()),
		ctxs:       make([]*Ctx, cfg.MaxThreads()),
	}
	if s.policy.mode == modeHardware {
		s.HTM = htm.NewSystem(cfg, h, pt)
		s.HTM.Counters = s.Counters
		s.HTM.AbortHook = s.countLockAbort
	}
	if s.policy.mode == modeSoftware || s.policy.fallback == modeSoftware {
		s.STM = stm.NewSystem(cfg, h, pt)
		s.STM.Counters = s.Counters
	}
	if cfg.Shard.Shards != 0 {
		// Shard mode pre-touches fresh chunks at refill time: demand
		// page-fault servicing mutates shared page-table state, which the
		// parallel phase of an epoch must not do (the shard-local access
		// paths skip the fault check on the strength of this).
		s.Heap.PreTouch = true
	}
	return s
}

// countLockAbort classifies a hardware abort of thread tid caused by the
// serialisation lock a fallback path took ("lock aborts", Fig. 12).
func (s *System) countLockAbort(tid int, a htm.Abort) {
	switch guardSerial.classify(a) {
	case guardTaken:
		s.Counters.Inc(tid, "tm:abort.lock")
		s.Counters.Inc(tid, "tm:abort.lock.conflict")
	case guardHeld:
		s.Counters.Inc(tid, "tm:abort.lock")
		s.Counters.Inc(tid, "tm:abort.lock.explicit")
	}
}

// Aborts returns the total transaction aborts so far (for energy
// accounting).
func (s *System) Aborts() uint64 {
	return s.Counters.Get(perf.RTMAborted) + s.Counters.Get("stm:abort")
}

// Starts returns the transactions started so far: hardware attempts
// under the RTM backends, software attempts under STM, atomic blocks
// under every other backend.
func (s *System) Starts() uint64 { return s.Counters.Get(s.txCounters()[0]) }

// Commits returns the transactions committed so far, counted as Starts
// counts them.
func (s *System) Commits() uint64 { return s.Counters.Get(s.txCounters()[1]) }

// txCounters names the counters Starts and Commits read.
func (s *System) txCounters() [2]string {
	switch s.Backend {
	case HTM, HTMBare:
		return [2]string{perf.RTMStart, perf.RTMCommit}
	case STM:
		return [2]string{"stm:begin", "stm:commit"}
	}
	return [2]string{"tm:atomic", "tm:atomic"}
}

// Run executes body on n simulated threads, attaching a Ctx to each, and
// returns the region metrics.
func (s *System) Run(n int, seed uint64, body func(c *Ctx)) sim.Result {
	// attach mutates shared state (heap pools, the shard engine's hooks),
	// so it runs in the engine's serial setup phase; the bodies —
	// concurrent under the sharded engine — get the prepared Ctx.

	start := time.Now() //rtmvet:ignore host-side wall clock for the timing sidecar; never feeds simulated state
	res := sim.Run(s.Arch, s.H, n, seed, func(p *sim.Proc) {
		s.attach(p)
	}, func(p *sim.Proc) {
		body(s.ctxs[p.ID()])
	})
	if s.Obs != nil {
		// Host-side wall clock for the timing sidecar; every simulated
		// quantity stays deterministic.
		s.Obs.AddWall(int64(time.Since(start))) //rtmvet:ignore host-side wall clock for the timing sidecar; never feeds simulated state
	}
	if s.RegionHook != nil {
		s.RegionHook(res)
	}
	return res
}

// Measure wraps a Run result and the abort delta into an energy measure.
func (s *System) Measure(res sim.Result, abortsBefore uint64) energy.Measure {
	return energy.Measure{
		Cycles:       res.Cycles,
		ThreadCycles: res.ThreadCycles,
		Instr:        res.TotalInstr(),
		Mem:          res.MemStats,
		Aborts:       s.Aborts() - abortsBefore,
	}
}

// attach builds the per-thread context.
func (s *System) attach(p *sim.Proc) *Ctx {
	tid := p.ID()
	if s.pools[tid] == nil {
		s.pools[tid] = s.Heap.NewPool()
	}
	c := s.ctxs[tid]
	if c == nil {
		c = &Ctx{}
		s.ctxs[tid] = c
	}
	*c = Ctx{sys: s, P: p, Pool: s.pools[tid]}
	c.rmwFn = func() {
		c.P.AddCycles(c.sys.Arch.Lat.AtomicRMW)
		c.P.StoreTiming(c.rmwAddr)
		c.rmwOld = c.sys.H.Peek(c.rmwAddr)
		c.sys.H.Poke(c.rmwAddr, c.rmwF(c.rmwOld))
	}
	c.waitLoad = func() int64 { return c.Load(guards[c.waitGuard].addr) }
	c.waitDone = func(v int64) bool { return !c.waitGuard.held(v) }
	if s.HTM != nil {
		c.htx = s.HTM.Attach(p)
	}
	if s.STM != nil {
		c.stx = s.STM.Attach(p)
	}
	return c
}

// Ctx is the per-thread handle workloads program against.
type Ctx struct {
	sys  *System
	P    *sim.Proc
	Pool *alloc.Pool

	htx   *htm.Txn
	stx   *stm.Txn
	inTx  bool
	frees []pendingFree

	// aborts counts the aborted attempts of the current (after it
	// returns, the last) atomic block.
	aborts int

	// site is the current AtomicSite's entry in sites (nil outside
	// one); sites is this thread's site table, which attach clears, so a
	// cached recorder id always belongs to the current recorder.
	site  *siteCounters
	sites map[string]*siteCounters

	// Flight-recorder state: the cycle the atomic block started (commit
	// slices span the whole block, retries included) and the cycle the
	// current attempt started (abort slices cover just the wasted
	// attempt).
	blockStart   uint64
	attemptStart uint64

	// rmwFn is the persistent boundary closure for sharded RMW, with its
	// arguments and result passed through the fields below — allocating a
	// capturing closure per RMW would put per-lock-op garbage on the shard
	// hot path.
	rmwFn   func()
	rmwAddr uint64
	rmwF    func(int64) int64
	rmwOld  int64

	// waitLoad and waitDone are awaitClear's persistent Spin arguments,
	// for the guard in waitGuard, so a wait allocates nothing.
	waitLoad  func() int64
	waitDone  func(int64) bool
	waitGuard guard
}

// count increments this thread's count of a counter.
func (c *Ctx) count(name string) { c.sys.Counters.Inc(c.P.ID(), name) }

// --- Raw (non-transactional) accesses -----------------------------------

// Load performs a plain (uninstrumented) read. Under HTM, a plain load
// issued inside an active hardware transaction is still tracked by the
// hardware — there is no way to hide a load from TSX — so it routes
// through the transaction; outside transactions it is strongly atomic.
// Under STM a plain load really is invisible to the TM (the instrumentation
// is compile-time selective), which is exactly the asymmetry STAMP's
// labyrinth exploits with its unprotected grid copy.
func (c *Ctx) Load(addr uint64) int64 {
	if c.sys.HTM != nil {
		if c.htx != nil && c.htx.Active() {
			return c.htx.Load(addr)
		}
		return c.sys.HTM.RawLoad(c.P, addr)
	}
	c.sys.PT.Service(c.P, addr)
	return c.P.Load(addr)
}

// Store performs a plain (uninstrumented) write; like Load it cannot
// escape an active hardware transaction.
func (c *Ctx) Store(addr uint64, val int64) {
	if c.sys.HTM != nil {
		if c.htx != nil && c.htx.Active() {
			c.htx.Store(addr, val)
			return
		}
		c.sys.HTM.RawStore(c.P, addr, val)
		return
	}
	c.sys.PT.Service(c.P, addr)
	c.P.Store(addr, val)
}

// RMW performs a non-transactional atomic read-modify-write.
func (c *Ctx) RMW(addr uint64, f func(int64) int64) int64 {
	if c.sys.HTM != nil {
		return c.sys.HTM.RawRMW(c.P, addr, f)
	}
	c.sys.PT.Service(c.P, addr)
	if c.P.ShardActive() {
		// Peek+Poke must see the live word: run the whole RMW as one
		// exclusive boundary op (same cycle charges as the inline path).
		c.rmwAddr, c.rmwF = addr, f
		c.P.Exclusive(c.rmwFn)
		c.rmwF = nil
		return c.rmwOld
	}
	c.P.AddCycles(c.sys.Arch.Lat.AtomicRMW)
	c.P.StoreTiming(addr)
	old := c.sys.H.Peek(addr)
	c.sys.H.Poke(addr, f(old))
	return old
}

// Pause executes a spin-wait hint (part of locks.Mem).
func (c *Ctx) Pause() { c.P.Pause() }

// Work models n cycles of thread-local computation.
func (c *Ctx) Work(n uint64) { c.P.Work(n) }

// Alloc allocates nWords words from the thread-local pool.
func (c *Ctx) Alloc(nWords int) uint64 { return c.Pool.Alloc(c.P, nWords) }

// AllocAligned allocates a cache-line-aligned block (for structure
// headers; see ds.Allocator).
func (c *Ctx) AllocAligned(nWords int) uint64 { return c.Pool.AllocAligned(c.P, nWords) }

// pendingFree is a free deferred to transaction commit.
type pendingFree struct {
	addr   uint64
	nWords int
}

// Free returns a block to the thread-local pool. Inside an atomic block
// the free is deferred until the block commits (STAMP's TM_FREE): freeing
// eagerly would let an aborted attempt's rollback resurrect a node whose
// memory had already been handed out again.
func (c *Ctx) Free(addr uint64, nWords int) {
	if c.inTx {
		c.frees = append(c.frees, pendingFree{addr, nWords})
		return
	}
	c.Pool.Free(addr, nWords)
}

// resetFrees discards frees queued by a failed attempt.
func (c *Ctx) resetFrees() { c.frees = c.frees[:0] }

// applyFrees releases the frees of a committed atomic block.
func (c *Ctx) applyFrees() {
	for _, f := range c.frees {
		c.Pool.Free(f.addr, f.nWords)
	}
	c.frees = c.frees[:0]
}

// --- Atomic blocks -------------------------------------------------------

// Tx is the handle passed to atomic-block bodies. Loads and stores go
// through the backend's concurrency control; Restart abandons the attempt
// and re-executes the block.
type Tx interface {
	Load(addr uint64) int64
	Store(addr uint64, val int64)
	Restart()
}

// restartSignal implements Restart for the lock/seq backends.
type restartSignal struct{}

// AtomicSite runs an atomic block tagged with a site name. Per-site
// counters accumulate in System.Counters: "site:<name>:commits",
// ":cycles" (inclusive of retries), ":aborts" and ":abort.<cause>" —
// the inputs for the paper's per-transaction tables (IV and V).
//
//rtm:hot
func (c *Ctx) AtomicSite(site string, body func(t Tx)) {
	prev := c.site
	sc := c.sites[site]
	if sc == nil {
		sc = c.newSite(site)
	}
	c.site = sc
	start := c.P.Cycles()
	c.Atomic(body)
	tid := c.P.ID()
	c.sys.Counters.Add(tid, sc.cycles, c.P.Cycles()-start)
	c.sys.Counters.Inc(tid, sc.commits)
	c.site = prev
}

// siteCounters is one site's entry in a thread's site table: its
// counter names, built once, and its recorder id.
type siteCounters struct {
	cycles, commits, aborts string
	// abort names ":abort.<cause>" by an htm.Cause, then by
	// stmAbort+stm.Reason.
	abort [stmAbort + int(stm.NumReasons)]string
	obs   int32 // recorder site id, -1 without a recorder
}

// stmAbort is the index of the first stm reason in siteCounters.abort.
const stmAbort = int(obs.NumCauses)

// newSite adds site to this thread's site table at its first block.
// Recorder.SiteID is mutex-guarded for exactly this call: interning from
// the shard parallel phase must not take a simulated-time path (a park
// or exclusive boundary op), or the simulation's outcome would depend on
// whether a recorder is attached. The table keeps the mutex off the
// steady-state hot path on both engines.
func (c *Ctx) newSite(site string) *siteCounters {
	key := "site:" + site + ":"
	sc := &siteCounters{cycles: key + "cycles", commits: key + "commits", aborts: key + "aborts", obs: -1}
	for cause := range obs.NumCauses {
		sc.abort[cause] = key + "abort." + cause.String()
	}
	for r := range stm.NumReasons {
		sc.abort[stmAbort+int(r)] = key + "abort." + r.String()
	}
	if r := c.sys.Obs; r != nil {
		sc.obs = r.SiteID(site)
	}
	if c.sites == nil {
		c.sites = make(map[string]*siteCounters)
	}
	c.sites[site] = sc
	return sc
}

// obsSite returns the recorder id of the current site (-1 outside
// AtomicSite or without a recorder).
func (c *Ctx) obsSite() int32 {
	if c.site == nil {
		return -1
	}
	return c.site.obs
}

// beginAttempt marks the start of one attempt of the current atomic
// block (the abort slice's left edge) and opens/extends the thread's
// span on the flight recorder: every attempt — hardware, STM or
// fallback — emits a begin, so spans stay balanced (each begin is
// terminated by a commit or an abort before the next begin).
func (c *Ctx) beginAttempt() {
	c.attemptStart = c.P.Cycles()
	c.P.RecordEvent(obs.Event{Cycle: c.attemptStart, Site: c.obsSite(), Aux: -1, Kind: obs.KTxBegin})
}

// obsCommit records the committed atomic block on the flight recorder:
// one slice from block start (retries included) to now.
func (c *Ctx) obsCommit(retries int) {
	c.P.RecordEvent(obs.Event{
		Cycle: c.P.Cycles(), Start: c.blockStart, Site: c.obsSite(),
		Aux: int32(retries), Kind: obs.KTxCommit,
	})
}

// obsAbort records one wasted attempt with its cause, the conflicting
// line (0 if none) and the aggressor thread (-1 if none).
func (c *Ctx) obsAbort(cause obs.Cause, line uint64, by int) {
	c.P.RecordEvent(obs.Event{
		Cycle: c.P.Cycles(), Start: c.attemptStart, Site: c.obsSite(),
		Cause: cause, Arg: line, Aux: int32(by), Kind: obs.KTxAbort,
	})
}

// obsFallback records the point event of a block falling back to its
// guarded phase.
func (c *Ctx) obsFallback() {
	c.P.RecordEvent(obs.Event{Cycle: c.P.Cycles(), Site: c.obsSite(), Kind: obs.KTxFallback})
}

// rawTx: direct accesses (Seq and Lock backends, and the HTM fallback).
type rawTx struct{ c *Ctx }

func (t rawTx) Load(addr uint64) int64       { return t.c.Load(addr) }
func (t rawTx) Store(addr uint64, val int64) { t.c.Store(addr, val) }
func (t rawTx) Restart()                     { panic(restartSignal{}) }

// htmTx: accesses through the hardware transaction.
type htmTx struct{ c *Ctx }

func (t htmTx) Load(addr uint64) int64       { return t.c.htx.Load(addr) }
func (t htmTx) Store(addr uint64, val int64) { t.c.htx.Store(addr, val) }
func (t htmTx) Restart()                     { t.c.htx.XAbort(xabortRestart) }

// stmTx: accesses through TinySTM.
type stmTx struct{ c *Ctx }

func (t stmTx) Load(addr uint64) int64       { return t.c.stx.Load(addr) }
func (t stmTx) Store(addr uint64, val int64) { t.c.stx.Store(addr, val) }
func (t stmTx) Restart()                     { t.c.stx.AbortVoluntarily() }
