// Package htm models Haswell's Restricted Transactional Memory (RTM).
//
// The model reproduces the mechanisms the paper's analysis rests on:
//
//   - Write-set capacity is bounded by the L1 data cache: evicting a
//     transactionally written line from L1 aborts the transaction
//     (the 512-line wall of Fig. 1).
//   - Read-set capacity is bounded by the inclusive L3: evicting a
//     transactionally read line from L3 aborts the transaction, and — like
//     the real hardware — the abort is *reported* as a conflict
//     (Section IV: "the current RTM implementation does not seem to
//     distinguish between data-conflict aborts and aborts caused by
//     read-set evictions from L3").
//   - Conflicts are detected eagerly at cache-line granularity with a
//     requester-wins policy, including against non-transactional accesses
//     (strong atomicity) and between hyper-thread siblings.
//   - Timer interrupts abort transactions (Fig. 2's duration wall), and
//     page faults inside transactions abort with a MISC3 status (Table V's
//     pre-touch optimization).
//
// Aborts unwind the transaction body with a panic carrying an Intel-style
// status word; the tm package recovers it and drives the retry/fallback
// policy of Algorithm 1.
package htm

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/lineset"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/perf"
	"rtmlab/internal/sim"
	"rtmlab/internal/vm"
)

// Intel RTM abort-status bits (EAX after xbegin).
const (
	StatusExplicit uint32 = 1 << 0 // xabort executed; code in bits 31:24
	StatusRetry    uint32 = 1 << 1 // retry may succeed
	StatusConflict uint32 = 1 << 2 // memory conflict (or L3 read-set eviction)
	StatusCapacity uint32 = 1 << 3 // internal buffer (L1 write-set) overflow
	StatusDebug    uint32 = 1 << 4
	StatusNested   uint32 = 1 << 5 // abort during nested transaction
)

// Started is the xbegin return value of a successfully started transaction.
const Started uint32 = ^uint32(0)

// ExplicitCode extracts the xabort immediate from a status word.
func ExplicitCode(status uint32) uint8 { return uint8(status >> 24) }

// Cause is the simulator-internal abort cause (the ground truth the
// hardware only partially exposes through status bits and counters). It
// is the recorder's abort-cause taxonomy, of which hardware transactions
// use the first eight values.
type Cause = obs.Cause

const (
	CauseNone          = obs.CauseNone
	CauseConflict      = obs.CauseConflict
	CauseReadCapacity  = obs.CauseReadCapacity
	CauseWriteCapacity = obs.CauseWriteCapacity
	CauseExplicit      = obs.CauseExplicit
	CauseInterrupt     = obs.CauseInterrupt
	CausePageFault     = obs.CausePageFault
	CauseNestDepth     = obs.CauseNestDepth
)

// Abort is the panic value used to unwind an aborted transaction body.
type Abort struct {
	Status       uint32
	Cause        Cause
	ConflictLine uint64 // line that triggered a conflict abort, if any
	ByThread     int    // aggressor thread for conflicts, -1 otherwise
}

func (a Abort) Error() string {
	return fmt.Sprintf("rtm abort: cause=%v status=%#x", a.Cause, a.Status)
}

// noLine is the empty value of the last-line memos (an impossible line
// address: it would require a byte address beyond 2^64).
const noLine = ^uint64(0)

type undoEntry struct {
	addr uint64
	old  int64
}

type track struct {
	readers uint32 // bitmask of threads with the line in their read set
	writer  int8   // thread with the line in its write set, -1 if none
}

// maxThreads is the number of hardware threads track.readers can hold.
const maxThreads = 32

// Txn is the per-hardware-thread transaction state.
type Txn struct {
	sys    *System
	proc   *sim.Proc
	active bool
	nest   int
	start  uint64 // clock at xbegin

	readSet  *lineset.Set // line addresses
	writeSet *lineset.Set
	undo     []undoEntry // insertion-ordered; rollback replays it in reverse

	// lastRead/lastWrite memoize the most recent line confirmed present in
	// the respective set. Set membership is a strong invariant: a line in a
	// live transaction's read (write) set can have no foreign writer
	// (tracker) in the directory — any such access would have aborted this
	// transaction and emptied the sets. A memo hit therefore skips both the
	// set lookup and the conflict probe. Reset whenever the sets empty.
	lastRead  uint64
	lastWrite uint64

	pending      bool // rolled back by a remote event; panic at next op
	pendingAbort Abort

	// Shard mode (see shard.go): speculative writes go to the redo
	// buffer instead of eager undo logging; gen counts attempts so
	// deferred probes from a dead attempt are skipped; the fns are
	// pre-bound at Attach (parameters through the raw* fields) so the
	// hot paths stay allocation-free.
	redo      *lineset.Table[int64]
	gen       uint32
	commitFn  func()
	rawLoadFn func()
	rawRMWFn  func()
	rawAddr   uint64
	rawRet    int64
	rawF      func(int64) int64
}

// Active reports whether a transaction is in flight.
func (t *Txn) Active() bool { return t.active }

// System is the machine-wide RTM model shared by all hardware threads.
type System struct {
	cfg      *arch.Config
	h        *mem.Hierarchy
	pt       *vm.PageTable
	Counters *perf.Set

	txs []*Txn                // indexed by thread id
	dir *lineset.Table[track] // active transactional lines

	// bwr maps line -> epoch ordinal of the boundary that last stored to
	// it (commit write-back, raw store, RMW). A replayed read-probe whose
	// issue epoch is <= that ordinal captured frozen state from before the
	// write even though the write's cycle orders earlier, and must
	// conflict-abort; see shard.go.
	bwr *lineset.Table[uint64]

	// slices are the per-core directory slices of the shard parallel
	// phase (nil under the classic engine or with the classifier off).
	// A line the frozen directory shows private to one core can be
	// conflict-tracked in that core's slice at access time — no deferred
	// probe, no boundary replay — because only that core's threads (one
	// shard, one worker) can touch the slice mid-phase, and every
	// boundary-context conflict path (probe replay, raw-store kills, L3
	// evictions, raw-load escalation) consults the slices alongside the
	// global directory. See shard.go for the claim rules.
	slices []*lineset.Table[track]

	// AbortHook, if set, observes every abort (used by the tm layer to
	// classify lock aborts).
	AbortHook func(tid int, a Abort)
}

// NewSystem builds the RTM model over a hierarchy, wiring its eviction
// hooks. pt may be nil, in which case no page-fault aborts occur. It
// panics if cfg has more hardware threads than a directory entry can
// track (arch.Config.Validate rejects such configs).
func NewSystem(cfg *arch.Config, h *mem.Hierarchy, pt *vm.PageTable) *System {
	if n := cfg.MaxThreads(); n > maxThreads {
		panic(fmt.Sprintf("htm: %d hardware threads exceed the %d-thread tracker mask", n, maxThreads))
	}
	s := &System{
		cfg:      cfg,
		h:        h,
		pt:       pt,
		Counters: perf.NewSet(),
		txs:      make([]*Txn, cfg.MaxThreads()),
		dir:      lineset.NewTable[track](1024),
	}
	h.Hooks.OnL1Evict = s.onL1Evict
	h.Hooks.OnL3Evict = s.onL3Evict
	if cfg.TSX.ReadSetLevel == 2 {
		h.Hooks.OnL2Evict = s.onL2Evict
	}
	return s
}

// Attach creates (or returns) the transaction state for a proc and
// installs the PreOp hook that delivers pending aborts and timer-tick
// aborts at operation boundaries.
func (s *System) Attach(p *sim.Proc) *Txn {
	tid := p.ID()
	tx := s.txs[tid]
	if tx == nil {
		tx = &Txn{
			sys:      s,
			readSet:  lineset.NewSet(512),
			writeSet: lineset.NewSet(512),
		}
		s.txs[tid] = tx
	}
	tx.proc = p
	tx.active = false
	tx.nest = 0
	tx.pending = false
	tx.lastRead = noLine
	tx.lastWrite = noLine
	if p.Sharded() {
		s.initShard(p, tx)
	}
	prev := p.PreOp
	p.PreOp = func() {
		if prev != nil {
			prev()
		}
		s.preOp(tx)
	}
	return tx
}

// preOp runs before every simulated operation of the owning thread.
//
//rtm:hot
func (s *System) preOp(tx *Txn) {
	if !tx.active {
		return
	}
	if tx.pending {
		tx.pending = false
		panic(tx.pendingAbort) //rtmvet:ignore abort delivery, runs once per abort not per operation
	}
	if s.tickBetween(tx.proc.Core(), tx.start, tx.proc.Cycles()) {
		s.abort(tx, Abort{Status: StatusRetry, Cause: CauseInterrupt, ByThread: -1})
		tx.pending = false
		panic(tx.pendingAbort) //rtmvet:ignore abort delivery, runs once per abort not per operation
	}
}

// tickBetween reports whether a timer interrupt fires on core in (from, to].
// Tick k nominally fires at k*p, shifted into [k*p, k*p+j) by the
// deterministic jitter. Instead of scanning every period in the gap, the
// first candidate is computed directly: k = from/p + 1 is the smallest
// tick with k*p > from, and if its whole jitter window fits below to the
// tick is guaranteed to land in range. Only when that window straddles a
// boundary do individual (hashed) ticks need checking, and then the
// candidate range spans at most ~j/p + 2 ticks — long quiescent gaps
// cost O(1) instead of O((to-from)/p).
//
//rtm:hot
func (s *System) tickBetween(core int, from, to uint64) bool {
	p := s.cfg.TSX.TickPeriod
	if p == 0 || to <= from {
		return false
	}
	j := s.cfg.TSX.TickJitter
	if j == 0 {
		return (from/p+1)*p <= to
	}
	if (from/p+1)*p+j-1 <= to {
		return true
	}
	// Boundary case: check each candidate against its jittered fire time.
	// k = from/p can still fire in range (its jitter may push it past
	// from); ticks with k*p > to never can (jitter only adds).
	k := from / p
	if k == 0 {
		k = 1
	}
	for ; k*p <= to; k++ {
		t := k*p + tickHash(uint64(core), k)%j
		if t > from && t <= to {
			return true
		}
	}
	return false
}

// tickHash is a deterministic per-(core, tick) jitter source.
//
//rtm:hot
func tickHash(core, k uint64) uint64 {
	x := core*0x9e3779b97f4a7c15 + k
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// Begin starts (or nests) a transaction. It returns Started; failures are
// delivered later as panics at the aborting operation.
func (s *System) Begin(tx *Txn) uint32 {
	p := tx.proc
	if tx.active {
		tx.nest++
		if tx.nest >= s.cfg.TSX.MaxNest {
			s.abort(tx, Abort{Status: StatusNested, Cause: CauseNestDepth, ByThread: -1})
			tx.pending = false
			panic(tx.pendingAbort)
		}
		p.AddCycles(s.cfg.TSX.XBeginCost / 4) // nested xbegin is cheap
		return Started
	}
	tx.active = true
	tx.nest = 0
	tx.start = p.Cycles()
	tx.pending = false
	p.AddCycles(s.cfg.TSX.XBeginCost)
	p.AddInstr(1)
	s.cntFor(p).Inc(perf.RTMStart)
	return Started
}

// ensureActive delivers a pending remote abort (unwinding the body) or
// panics on misuse outside a transaction.
//
//rtm:hot
func (t *Txn) ensureActive(op string) {
	if t.pending {
		t.pending = false
		panic(t.pendingAbort) //rtmvet:ignore abort delivery, runs once per abort not per operation
	}
	if !t.active {
		panic("htm: " + op + " outside transaction") //rtmvet:ignore misuse panic, unreachable in a correct harness
	}
}

// Load performs a transactional read.
//
//rtm:hot
func (t *Txn) Load(addr uint64) int64 {
	s := t.sys
	t.ensureActive("Load")
	if t.proc.ShardActive() {
		return t.shardLoad(addr)
	}
	la := mem.LineAddr(addr)
	if la != t.lastRead {
		if t.readSet.Add(la) {
			// Conflict probe only for lines not yet in our read set: once a
			// line is ours, no foreign writer can appear without aborting us
			// first (requester wins in Store/RawStore/RawRMW).
			s.claim(s.dir, la, t.proc.ID(), false)
		}
		t.lastRead = la
		t.checkPageFault(addr)
	}
	v := t.proc.Load(addr) // may fire eviction hooks -> pending abort
	t.deliverPending()
	return v
}

// Store performs a transactional write.
//
//rtm:hot
func (t *Txn) Store(addr uint64, val int64) {
	s := t.sys
	t.ensureActive("Store")
	if t.proc.ShardActive() {
		t.shardStore(addr, val)
		return
	}
	la := mem.LineAddr(addr)
	if la != t.lastWrite {
		if t.writeSet.Add(la) {
			// Conflict probe only for lines not yet in our write set: while
			// we own a line as writer, any foreign reader's Load would have
			// requester-wins-aborted us, so no foreign trackers can exist.
			s.claim(s.dir, la, t.proc.ID(), true)
		}
		t.lastWrite = la
		t.checkPageFault(addr)
	}
	t.undo = append(t.undo, undoEntry{addr: addr, old: s.h.Peek(addr)})
	// Timing first: if the store's own eviction side-effects abort this
	// transaction, the speculative value must never land.
	t.proc.StoreTiming(addr)
	t.deliverPending()
	s.h.Poke(addr, val)
}

// checkPageFault aborts the transaction if addr touches a page that has
// never been accessed (a page fault cannot be serviced inside a txn).
func (t *Txn) checkPageFault(addr uint64) {
	s := t.sys
	if s.pt == nil || s.pt.Touched(addr) {
		return
	}
	// The fault is serviced on the non-transactional path after the
	// abort, so the page becomes resident for the retry.
	s.pt.Touch(addr)
	t.proc.AddCycles(s.pt.FaultCycles)
	s.abort(t, Abort{Status: 0, Cause: CausePageFault, ByThread: -1})
	t.pending = false
	panic(t.pendingAbort)
}

// deliverPending panics with the pending abort if a hook rolled us back
// during the memory access we just performed.
func (t *Txn) deliverPending() {
	if t.pending {
		t.pending = false
		panic(t.pendingAbort)
	}
}

// XAbort explicitly aborts the running transaction with an 8-bit code.
func (t *Txn) XAbort(code uint8) {
	s := t.sys
	t.ensureActive("XAbort")
	t.proc.AddCycles(s.cfg.TSX.XAbortCost)
	s.abort(t, Abort{
		Status:   StatusExplicit | uint32(code)<<24,
		Cause:    CauseExplicit,
		ByThread: -1,
	})
	t.pending = false
	panic(t.pendingAbort)
}

// Fault tears the transaction down after its body raised a synchronous
// fault (a runtime panic in workload code), returning the abort the
// caller should report. On Haswell any exception inside a transactional
// region aborts the transaction and the fault is only ever delivered to
// the OS if the non-speculative re-execution repeats it; a simulated
// fault can additionally be the visible symptom of a doomed attempt
// (under the sharded engine a transaction can read mixed-epoch state
// after the conflict that kills it, before the abort is delivered). If
// the doomed-attempt abort was already rolled back and left pending it
// is consumed as-is; an attempt still live is rolled back as a conflict
// abort. Reports ok=false — caller should propagate the fault — when no
// transaction was in flight.
func (t *Txn) Fault() (a Abort, ok bool) {
	if t.pending {
		t.pending = false
		return t.pendingAbort, true
	}
	if !t.active {
		return Abort{}, false
	}
	t.sys.abort(t, conflict(0, -1))
	t.pending = false
	return t.pendingAbort, true
}

// Commit commits the transaction (outermost level) or pops one nesting
// level.
func (t *Txn) Commit() {
	s := t.sys
	t.ensureActive("Commit")
	if t.nest > 0 {
		t.nest--
		return
	}
	if t.proc.ShardActive() {
		t.proc.Exclusive(t.commitFn)
		return
	}
	p := t.proc
	p.AddCycles(s.cfg.TSX.XEndCost)
	p.AddInstr(1)
	if rec := s.h.Rec; rec != nil {
		rec.HTMSetsAtCommit(t.readSet.Len(), t.writeSet.Len())
	}
	s.clearSets(t)
	t.active = false
	t.undo = t.undo[:0]
	s.Counters.Inc(perf.RTMCommit)
}

// abortTx rolls back the live tx immediately (restoring memory and
// dropping its speculative lines) and arranges for its thread to panic at
// its next operation (or immediately, if the caller is the victim and
// chooses to). Callers go through abort, which picks it outside the
// shard parallel phase.
func (s *System) abortTx(tx *Txn, a Abort) {
	if rec := s.h.Rec; rec != nil {
		rec.HTMSetsAtAbort(tx.readSet.Len(), tx.writeSet.Len())
	}
	// Restore the undo log in reverse.
	for i := len(tx.undo) - 1; i >= 0; i-- {
		s.h.Poke(tx.undo[i].addr, tx.undo[i].old)
	}
	// Speculative lines are invalidated on abort (loss of locality).
	// Drops of distinct lines commute, so set order cannot leak into
	// simulated state.
	core := tx.proc.Core()
	tx.writeSet.Range(func(la uint64) bool {
		s.h.Drop(core, la)
		return true
	})
	s.clearSets(tx)
	tx.undo = tx.undo[:0]
	if tx.redo != nil {
		tx.redo.Clear() // shard mode: discard the unpublished redo buffer
	}
	tx.gen++
	tx.active = false
	tx.nest = 0
	tx.pending = true
	tx.pendingAbort = a
	tx.proc.AddCycles(s.cfg.TSX.AbortCost)

	s.countAbort(s.Counters, a)
	if s.AbortHook != nil {
		s.AbortHook(tx.proc.ID(), a)
	}
}

// countAbort updates the Intel-style performance counters for one abort
// in c (the shared set, or a per-thread staging set in the shard
// parallel phase).
func (s *System) countAbort(c *perf.Set, a Abort) {
	c.Inc(perf.RTMAborted)
	c.Inc("htm:abort." + a.Cause.String())
	switch a.Cause {
	case CauseConflict, CauseReadCapacity, CauseWriteCapacity:
		c.Inc(perf.RTMAbortedMisc1)
	case CauseExplicit, CausePageFault, CauseNestDepth:
		c.Inc(perf.RTMAbortedMisc3)
	case CauseInterrupt:
		c.Inc(perf.RTMAbortedMisc5)
	}
}

// clearSets removes tx's lines from the global directory (or the core's
// directory slice, whichever holds the claim) and empties its read and
// write sets (invalidating the last-line memos, whose validity is tied
// to set membership).
func (s *System) clearSets(tx *Txn) {
	// Per-line directory updates commute (each clears this thread's own
	// claim on one line), so set iteration order cannot leak into state.
	sl, tid := tx.slice(), tx.proc.ID()
	tx.readSet.Range(func(la uint64) bool {
		if sl == nil || !release(sl, la, tid, false) {
			release(s.dir, la, tid, false)
		}
		return true
	})
	tx.writeSet.Range(func(la uint64) bool {
		if sl == nil || !release(sl, la, tid, true) {
			release(s.dir, la, tid, true)
		}
		return true
	})
	tx.readSet.Clear()
	tx.writeSet.Clear()
	tx.lastRead = noLine
	tx.lastWrite = noLine
}

// onL1Evict implements write-set capacity aborts: a transactionally
// written line leaving a core's L1 kills the writing transaction. In the
// shard parallel phase the frozen directory may not yet show this
// epoch's claims, so the core's own transactions (the only possible
// victims — write sets are L1-bound) are checked directly and rolled
// back locally; they are same-shard state, so the scan is race-free.
func (s *System) onL1Evict(core int, la uint64) {
	if s.bwr != nil { // shard mode: initShard built bwr
		// The write sets are the ground truth regardless of phase (the
		// directory lags by up to an epoch mid-parallel and by unreplayed
		// probes mid-boundary).
		for tid := core; tid < len(s.txs); tid += s.cfg.Cores {
			if tx := s.txs[tid]; tx != nil && tx.writeSet.Contains(la) {
				s.abort(tx, Abort{Status: StatusCapacity, Cause: CauseWriteCapacity, ByThread: -1})
			}
		}
		return
	}
	e, ok := s.dir.Get(la)
	if !ok || e.writer < 0 {
		return
	}
	if tx := s.txs[e.writer]; tx != nil && tx.proc.Core() == core && tx.writeSet.Contains(la) {
		s.abort(tx, Abort{Status: StatusCapacity, Cause: CauseWriteCapacity, ByThread: -1})
	}
}

// onL3Evict implements read-set capacity aborts: a transactionally read
// line leaving the inclusive L3 kills every reader. The hardware reports
// these as conflicts (no RETRY, CONFLICT set) — we keep the true cause in
// the internal counters.
func (s *System) onL3Evict(la uint64) {
	// Slice-tracked claims are subject to the same inclusive-L3 bound as
	// directory-tracked ones. L3 fills and evictions only happen in
	// boundary or classic contexts, where the slices are safe to read.
	s.kill(la, -1, true, true)
}

// onL2Evict implements the L2-bounded read-set ablation: a line leaving a
// core's L2 aborts that core's transactions tracking it in their read
// sets (the write set is still L1-bound via onL1Evict).
func (s *System) onL2Evict(core int, la uint64) {
	e, ok := s.dir.Get(la)
	if !ok {
		return
	}
	readers := e.readers
	for tid := 0; readers != 0; tid++ {
		if readers&(1<<uint(tid)) == 0 {
			continue
		}
		readers &^= 1 << uint(tid)
		if tx := s.txs[tid]; tx != nil && tx.proc.Core() == core && tx.readSet.Contains(la) {
			s.abort(tx, Abort{Status: StatusConflict, Cause: CauseReadCapacity, ByThread: -1})
		}
	}
}

// RawLoad is a non-transactional read with strong atomicity: it aborts any
// transaction that has the line in its write set. In the shard parallel
// phase the probe consults the frozen directory: a visible writer claim
// escalates to an exclusive boundary op (the kill must be cycle-ordered);
// otherwise the load proceeds on the shard path. A writer claim deferred
// within the current epoch is invisible until the boundary — the read
// still returns the epoch-consistent (pre-publication) value, the writer
// survives one epoch longer than the legacy engine would allow.
func (s *System) RawLoad(p *sim.Proc, addr uint64) int64 {
	if p.ShardActive() {
		la := mem.LineAddr(addr)
		if s.dir.Len() != 0 {
			if e, ok := s.dir.Get(la); ok && e.writer >= 0 && int(e.writer) != p.ID() {
				t := s.txs[p.ID()]
				t.rawAddr = addr
				p.Exclusive(t.rawLoadFn)
				return t.rawRet
			}
		}
		if s.slices != nil {
			// A slice write claim can only live on a line whose frozen
			// directory owner is the claiming core (the claim rule, and
			// every ownership downgrade kills the claim first). Foreign
			// slices are mid-phase-mutable and must not be read here, so
			// the frozen owner is the screen: foreign owner -> escalate to
			// the boundary path, which consults the slices serially.
			if o := s.h.DirOwner(la); o >= 0 && o != p.Core() {
				t := s.txs[p.ID()]
				t.rawAddr = addr
				p.Exclusive(t.rawLoadFn)
				return t.rawRet
			}
		}
		return p.Load(addr)
	}
	if s.dir.Len() != 0 {
		s.kill(mem.LineAddr(addr), p.ID(), false, false)
	}
	if s.pt != nil {
		s.pt.Service(p, addr)
	}
	return p.Load(addr)
}

// RawStore is a non-transactional write with strong atomicity: it aborts
// any transaction tracking the line. In the shard parallel phase the
// store rides the shard path unchanged: whether it is buffered or
// parked, the engine's ShardRawStore hook kills the line's trackers in
// cycle order at the boundary where the write lands.
func (s *System) RawStore(p *sim.Proc, addr uint64, val int64) {
	if p.ShardActive() {
		p.Store(addr, val)
		return
	}
	if s.dir.Len() != 0 {
		s.kill(mem.LineAddr(addr), p.ID(), true, false)
	}
	if s.pt != nil {
		s.pt.Service(p, addr)
	}
	p.Store(addr, val)
}

// RawRMW is a non-transactional atomic read-modify-write with strong
// atomicity: it aborts every transaction tracking the line, pays exclusive
// (store) timing, then applies f with no scheduler yield — the Peek/Poke
// pair is the atomic step. It returns the old value.
func (s *System) RawRMW(p *sim.Proc, addr uint64, f func(int64) int64) int64 {
	if p.ShardActive() {
		// The whole RMW is one exclusive boundary op: timing, tracker
		// kills and the Peek/Poke pair must be a serial step.
		t := s.txs[p.ID()]
		t.rawAddr = addr
		t.rawF = f
		p.Exclusive(t.rawRMWFn)
		t.rawF = nil
		return t.rawRet
	}
	if s.pt != nil {
		s.pt.Service(p, addr)
	}
	p.AddCycles(s.cfg.Lat.AtomicRMW)
	p.StoreTiming(addr) // yields: transactions may touch the line meanwhile
	// Atomic step: kill every tracker (their undo logs restore first, so
	// Peek sees committed state), then read-modify-write. No yields occur
	// from here to the Poke.
	s.kill(mem.LineAddr(addr), p.ID(), true, false)
	old := s.h.Peek(addr)
	s.h.Poke(addr, f(old))
	return old
}

// ActiveLines returns the number of lines currently tracked (for tests).
func (s *System) ActiveLines() int {
	n := s.dir.Len()
	for _, sl := range s.slices {
		n += sl.Len()
	}
	return n
}
