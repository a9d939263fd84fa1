package tm

import (
	"rtmlab/internal/arch"
	"rtmlab/internal/htm"
	"rtmlab/internal/locks"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/stm"
)

// attemptMode is how the attempts of one phase execute.
type attemptMode uint8

const (
	modeNone     attemptMode = iota // no phase (a policy without a fallback)
	modeDirect                      // plain accesses; only Restart ends an attempt early
	modeSoftware                    // a software transaction (internal/stm)
	modeHardware                    // an RTM transaction subscribed to the guard
)

// guard names the synchronisation word that coordinates a policy's
// phases: a hardware attempt subscribes to it after xbegin and aborts if
// it is held; a direct or software phase holds it while it runs.
type guard uint8

const (
	guardNone      guard = iota
	guardGlobal          // Lock: the global ticket lock
	guardSerial          // HTM: Algorithm 1's reader/writer serialisation lock
	guardSTMActive       // Hybrid: the count of software transactions in flight
)

// The guard words sit below the heap, each on its own cache line. A
// hardware attempt that finds one held aborts with its explicit code.
const (
	serialLockAddr uint64 = 1 << 28
	globalLockAddr        = serialLockAddr + 2*arch.LineSize
	stmActiveAddr         = serialLockAddr + 8*64

	xabortLockHeld  uint8 = 0 // Algorithm 1's _xabort(0)
	xabortSTMActive uint8 = 0x57
)

// guards describes each guard a hardware attempt can subscribe to (the
// Lock backend only ever holds its global lock).
var guards = [...]struct {
	addr    uint64
	code    uint8  // explicit-abort code of a hardware attempt that finds it held
	counter string // counts fallbacks onto the guard
}{
	guardSerial:    {serialLockAddr, xabortLockHeld, "tm:fallback"},
	guardSTMActive: {stmActiveAddr, xabortSTMActive, "tm:hybrid.fallback"},
}

// held reports whether the guard word value v excludes hardware attempts.
// The serialisation lock excludes them only while a writer holds it (the
// arch_read_can_lock test of Algorithm 1); any other guard while non-zero.
func (g guard) held(v int64) bool {
	if g == guardSerial {
		return !locks.CanRead(v)
	}
	return v != 0
}

// budget bounds the failed attempts of a policy's first phase.
type budget uint8

const (
	unbounded  budget = iota
	maxRetries        // System.MaxRetries, read when each block runs
)

// policy is a backend's atomic-block strategy. Every backend runs its
// blocks through one loop (Ctx.Atomic) that interprets its policy: a
// first phase makes attempts in mode until one commits or the budget is
// spent, then a fallback phase runs under the guard until it commits.
type policy struct {
	mode     attemptMode // how first-phase attempts run
	guard    guard
	budget   budget
	wait     bool        // after a guard abort, wait for the guard to clear before retrying (Algorithm 1)
	bail     bool        // fall back at once when a hardware attempt finds the guard held (Hybrid)
	fallback attemptMode // the phase run under the guard once the budget is spent
}

// policies holds each backend's policy; DESIGN §3 "Atomic-block
// policies" tabulates them.
//
// Hybrid is the serialization-free alternative to Algorithm 1 that the
// paper's conclusion points towards ("carefully avoiding unnecessary
// serialization in such [fallback] systems is essential"): transactions
// run on RTM first, but after MaxRetries failures they fall back to a
// software transaction (internal/stm) instead of a global lock, so
// overflowing transactions still run concurrently with each other.
//
// Coordination follows the coarse Hybrid-NOrec recipe: an `stmActive`
// counter (its own cache line) counts in-flight software transactions.
// Hardware transactions subscribe to it after xbegin and abort if it is
// non-zero; a software transaction's increment of the counter therefore
// conflict-aborts every running hardware transaction. A hardware attempt
// that finds software transactions in flight does not wait for them to
// drain: it joins them in software at once, since software transactions
// compose with each other (the whole advantage over the lock). Software
// transactions never observe uncommitted hardware state (hardware commits
// are atomic) and vice versa (software transactions are write-back), so
// the two worlds compose safely at this coarse granularity.
var policies = [...]policy{
	Seq:     {mode: modeDirect},
	Lock:    {mode: modeDirect, guard: guardGlobal},
	STM:     {mode: modeSoftware},
	HTM:     {mode: modeHardware, guard: guardSerial, budget: maxRetries, wait: true, fallback: modeDirect},
	HTMBare: {mode: modeHardware},
	Hybrid:  {mode: modeHardware, guard: guardSTMActive, budget: maxRetries, bail: true, fallback: modeSoftware},
}

// outcome is how one attempt ended.
type outcome uint8

const (
	committed outcome = iota
	aborted
	guardHeld  // a hardware attempt found the guard held (explicit abort with its code)
	guardTaken // a hardware attempt lost the guard's line to a conflict
)

// Atomic executes body atomically under the system's policy.
func (c *Ctx) Atomic(body func(t Tx)) {
	if c.inTx {
		panic("tm: nested Atomic (flatten in the workload)")
	}
	c.inTx = true
	defer func() { c.inTx = false }()
	c.count("tm:atomic")
	c.resetFrees()
	c.blockStart = c.P.Cycles()
	c.attemptStart = c.blockStart
	c.aborts = 0
	p := &c.sys.policy
	if !c.phase(body, p.mode, p.budget) {
		g := &guards[p.guard]
		c.count(g.counter)
		c.obsFallback()
		c.phase(body, p.fallback, unbounded)
	}
	c.applyFrees()
}

// phase makes attempts in mode until one commits, reporting whether one
// did; it gives up once budget b is spent or, under a bail policy, when
// the guard is found held. A direct or software phase holds the guard for
// its whole run. A speculative phase records its commit as it happens,
// with its own failures as the retries; a direct phase cannot fail, so it
// records the failures that led into it, after releasing the guard.
func (c *Ctx) phase(body func(t Tx), mode attemptMode, b budget) bool {
	p := &c.sys.policy
	holds := mode != modeHardware
	if holds {
		c.acquire(p.guard)
	}
	before := c.aborts
	for n := 1; ; n++ {
		out := c.attempt(body, mode)
		if out == committed {
			break
		}
		c.aborts++
		if p.bail && out == guardHeld {
			return false
		}
		if p.wait && out != aborted {
			c.awaitClear(p.guard)
		}
		if b == maxRetries && n >= c.sys.MaxRetries {
			return false
		}
	}
	if mode != modeDirect {
		c.obsCommit(c.aborts - before)
	}
	if holds {
		c.release(p.guard)
	}
	if mode == modeDirect {
		c.obsCommit(before)
	}
	return true
}

// attempt makes one attempt of body in mode.
func (c *Ctx) attempt(body func(t Tx), mode attemptMode) (out outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = c.recoverAttempt(r, mode)
		}
	}()
	c.resetFrees()
	c.beginAttempt()
	switch mode {
	case modeDirect:
		body(rawTx{c})
		return committed
	case modeSoftware:
		c.stx.Begin()
		body(stmTx{c})
		c.stx.Commit()
	case modeHardware:
		c.sys.HTM.Begin(c.htx)
		// Subscribe to the guard inside the transaction (adding it to the
		// read set); abort explicitly if it is held.
		if g := c.sys.policy.guard; g != guardNone && g.held(c.htx.Load(guards[g].addr)) {
			c.htx.XAbort(guards[g].code)
		}
		body(htmTx{c})
		c.htx.Commit()
	}
	return committed
}

// recoverAttempt turns the panic that ended an attempt into its outcome
// and records the abort. A direct attempt ends early only by Restart,
// which wastes the attempt like any abort (cause "none", keeping spans
// balanced) but is not counted per site.
//
// Under the sharded engine a doomed speculative attempt can read
// mixed-epoch state before its abort is delivered, and fault in workload
// code first. As on hardware, where any synchronous exception inside a
// transaction aborts it, the fault becomes an abort (htm.Txn.Fault,
// stm.Txn.Fault). Faults in direct attempts, which run non-speculatively,
// and under the opaque classic engine are genuine bugs and propagate.
func (c *Ctx) recoverAttempt(r any, mode attemptMode) outcome {
	if mode == modeDirect {
		if _, is := r.(restartSignal); !is {
			panic(r)
		}
		c.obsAbort(obs.CauseNone, 0, -1)
		return aborted
	}
	var (
		ha htm.Abort
		sa stm.Abort
		ok bool
	)
	if mode == modeHardware {
		ha, ok = r.(htm.Abort)
	} else {
		sa, ok = r.(stm.Abort)
	}
	if !ok {
		if c.P.Sharded() {
			if mode == modeHardware {
				ha, ok = c.htx.Fault()
			} else {
				sa, ok = c.stx.Fault()
			}
		}
		if !ok {
			panic(r)
		}
		c.count("tm:fault.sandbox")
	}
	if mode == modeSoftware {
		c.recordAbort(stmAbort+int(sa.Reason), sa.Reason.ObsCause(), sa.Addr, sa.By)
		return aborted
	}
	c.recordAbort(int(ha.Cause), ha.Cause, ha.ConflictLine, ha.ByThread)
	return c.sys.policy.guard.classify(ha)
}

// classify reports what a hardware abort says about guard g: found held at
// xbegin, taken mid-attempt, or nothing.
func (g guard) classify(a htm.Abort) outcome {
	switch {
	case g == guardNone:
		return aborted
	case a.Cause == htm.CauseExplicit && htm.ExplicitCode(a.Status) == guards[g].code:
		return guardHeld
	case a.Cause == htm.CauseConflict && a.ConflictLine == mem.LineAddr(guards[g].addr):
		return guardTaken
	}
	return aborted
}

// recordAbort counts and records one aborted speculative attempt; cause
// indexes siteCounters.abort.
//
//rtm:hot
func (c *Ctx) recordAbort(cause int, oc obs.Cause, line uint64, by int) {
	if sc := c.site; sc != nil {
		tid := c.P.ID()
		c.sys.Counters.Inc(tid, sc.aborts)
		c.sys.Counters.Inc(tid, sc.abort[cause])
	}
	c.obsAbort(oc, line, by)
}

// awaitClear spins until the guard word no longer excludes hardware
// attempts. It runs between attempts, outside any transaction, so its
// Load is the one operation sim.Proc.Spin allows (waitLoad and waitDone,
// made once per thread in attach, read the guard from c.waitGuard).
func (c *Ctx) awaitClear(g guard) {
	c.waitGuard = g
	c.P.Spin(c.waitLoad, c.waitDone)
}

// acquire takes the guard for a direct or software phase. Taking a lock
// writes its line, conflict-aborting every hardware attempt subscribed to
// it.
func (c *Ctx) acquire(g guard) {
	switch g {
	case guardGlobal:
		locks.Ticket{Addr: globalLockAddr}.Lock(c)
	case guardSerial:
		locks.RW{Addr: serialLockAddr}.WriteLock(c)
	case guardSTMActive:
		c.RMW(stmActiveAddr, func(v int64) int64 { return v + 1 })
	}
}

// release gives the guard back after a direct or software phase.
func (c *Ctx) release(g guard) {
	switch g {
	case guardGlobal:
		locks.Ticket{Addr: globalLockAddr}.Unlock(c)
	case guardSerial:
		locks.RW{Addr: serialLockAddr}.WriteUnlock(c)
	case guardSTMActive:
		c.RMW(stmActiveAddr, func(v int64) int64 { return v - 1 })
	}
}
