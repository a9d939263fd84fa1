// Package stm implements software transactional memory over the
// simulated machine, with pluggable concurrency-control protocols
// behind the Protocol interface:
//
//   - tinystm (default): TinySTM-style encounter-time locking with
//     time-based opacity — a global version clock and a 2^k-entry
//     versioned-lock array (see tinystm.go). This is the protocol the
//     paper compares RTM against.
//   - tl2: TL2-style commit-time locking — same clock and lock array,
//     but writes stay buffered and locks are taken only inside the
//     commit window (see tl2.go).
//   - norec: NOrec — one global sequence lock and value-based read-set
//     validation; no lock array, hence no false-conflict wall (see
//     norec.go).
//
// All protocol metadata lives in *simulated* memory above MetaBase, so
// the cache traffic and coherence ping-pong it causes (the clock or
// sequence-lock line shared by every thread, lock lines bouncing
// between writers) are modelled for real — these are exactly the
// overheads the paper attributes TinySTM's instrumentation costs and
// false conflicts to, and exactly where the protocols differ.
//
// The shared Txn dispatcher owns the write buffer (ordered log +
// open-addressed index, read-own-write), the abort/backoff path, the
// counters and the shard-mode plumbing; protocols implement the
// begin/load/store/commit steps. Select a protocol by name through
// arch.Config.STM.Protocol ("" = tinystm).
package stm

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

// MetaBase is the simulated address where STM metadata lives, far above
// any heap allocation.
const MetaBase uint64 = 1 << 36

// Abort is the panic value used to unwind an aborted transaction body.
// By is the aggressor thread — recovered from the owner tid encoded in
// the conflicting lock word on lock conflicts — and Addr the conflicting
// metadata address; -1/0 when unknown (validation aborts, voluntary
// restarts, faults). They feed the obs layer's blame graph.
type Abort struct {
	Reason Reason
	By     int
	Addr   uint64
}

func (a Abort) Error() string { return fmt.Sprintf("stm abort: %v", a.Reason) }

// Reason classifies why a software transaction aborted.
type Reason uint8

const (
	ReasonNone Reason = iota
	// ReasonLocked is a lock conflict: encounter-time under tinystm,
	// commit-time under tl2. NOrec has no locks and never reports it.
	ReasonLocked
	// ReasonValidation is a failed snapshot check: version-based under
	// tinystm/tl2, value-based under norec.
	ReasonValidation
	// ReasonFault marks an attempt torn down because its body raised a
	// runtime fault on an inconsistent (doomed) read view; see Txn.Fault.
	ReasonFault
	NumReasons
)

func (r Reason) String() string {
	switch r {
	case ReasonLocked:
		return "locked"
	case ReasonValidation:
		return "validation"
	case ReasonFault:
		return "fault"
	default:
		return "none"
	}
}

// abortCounters names the per-reason abort counters, "stm:abort.<reason>".
var abortCounters = func() (n [NumReasons]string) {
	for r := range NumReasons {
		n[r] = "stm:abort." + r.String()
	}
	return n
}()

// ObsCause maps a Reason onto the unified abort-cause taxonomy. A fault

// is the visible symptom of a stale view that validation would have
// rejected, so it classifies as a validation abort.
func (r Reason) ObsCause() obs.Cause {
	switch r {
	case ReasonLocked:
		return obs.CauseLocked
	case ReasonValidation, ReasonFault:
		return obs.CauseValidation
	default:
		return obs.CauseNone
	}
}

type readEntry struct {
	lockAddr uint64
	version  uint64
}

// Write and lock sets are kept as ordered slices (with open-addressed
// indexes for O(1) lookup) so that commit-time stores replay in
// acquisition order — hash-order iteration would make the cache timing
// nondeterministic.
type writeEntry struct {
	addr uint64
	val  int64
}

type ownedEntry struct {
	lockAddr uint64
	version  uint64
}

// System is the machine-wide STM instance (one protocol per system).
type System struct {
	cfg      *arch.Config
	h        *mem.Hierarchy
	pt       *vm.PageTable
	Counters *perf.Set

	proto Protocol

	clockAddr uint64
	lockBase  uint64
	lockMask  uint64

	// MaxBackoff caps the exponential backoff in cycles.
	MaxBackoff uint64
}

// NewSystem builds an STM over the hierarchy, running the protocol
// selected by cfg.STM.Protocol ("" = tinystm); cfg is final here, so the
// protocol is resolved once. A name arch.Config.Validate rejects panics.
// pt may be nil.
func NewSystem(cfg *arch.Config, h *mem.Hierarchy, pt *vm.PageTable) *System {
	return &System{
		cfg:        cfg,
		h:          h,
		pt:         pt,
		Counters:   perf.NewSet(cfg.MaxThreads()),
		proto:      protocolFor(cfg.STM.Protocol),
		clockAddr:  MetaBase,
		lockBase:   MetaBase + arch.PageSize,
		lockMask:   (1 << uint(cfg.STM.LockArrayLog2)) - 1,
		MaxBackoff: 8192,
	}
}

// lockOf maps a data address to its versioned-lock address.
//
//rtm:hot
func (s *System) lockOf(addr uint64) uint64 {
	idx := (addr >> 3) & s.lockMask
	return s.lockBase + idx*arch.WordSize
}

// Lock-word encoding: bit 0 = locked; locked words carry the owner tid in
// bits 1..16, unlocked words carry version << 1. NOrec's sequence lock
// uses the raw value instead (even = quiescent, odd = writer committing).
func lockedWord(tid int) int64   { return int64(tid)<<1 | 1 }
func isLocked(w int64) bool      { return w&1 == 1 }
func lockOwner(w int64) int      { return int(w >> 1) }
func versionWord(v uint64) int64 { return int64(v << 1) }
func wordVersion(w int64) uint64 { return uint64(w) >> 1 }

// Txn is the per-thread transaction descriptor. It carries the union of
// the protocols' sets: reads (lock/version pairs: tinystm, tl2), vreads
// (address/value pairs: norec), the write buffer and the owned-lock log.
type Txn struct {
	sys    *System
	proc   *sim.Proc
	active bool

	rv       uint64 // snapshot: clock version (tinystm/tl2) or raw seqlock (norec)
	reads    []readEntry
	vreads   []valEntry
	writes   []writeEntry
	writeIdx *lineset.Table[int32] // data addr -> index into writes
	owned    []ownedEntry
	ownedIdx *lineset.Table[int32] // lock addr -> index into owned
	attempts int                   // consecutive aborts of the current atomic block

	// Shard mode (see shard.go): pre-bound exclusive fns for lock
	// acquisition and commit; sAddr/sVer pass parameters and results.
	acquireFn func()
	commitFn  func()
	sAddr     uint64
	sVer      uint64
}

// Attach returns a fresh transaction descriptor for a proc.
func (s *System) Attach(p *sim.Proc) *Txn {
	tx := &Txn{
		sys:      s,
		proc:     p,
		writeIdx: lineset.NewTable[int32](256),
		ownedIdx: lineset.NewTable[int32](256),
	}
	if p.Sharded() {
		s.proto.shardInit(tx)
	}
	return tx
}

// Begin starts a transaction: the protocol establishes its snapshot
// (a real, timed metadata load — the clock or sequence-lock line is the
// classic STM scalability bottleneck).
func (t *Txn) Begin() {
	if t.active {
		panic("stm: nested Begin (flatten in the tm layer)")
	}
	s := t.sys
	t.proc.AddCycles(s.cfg.STM.TxBeginCost)
	t.proc.AddInstr(4)
	s.proto.Begin(t)
	t.active = true
	t.reads = t.reads[:0]
	t.vreads = t.vreads[:0]
	s.Counters.Inc(t.proc.ID(), "stm:begin")
}

// abort releases held locks, applies backoff and unwinds. In the shard
// parallel phase the lock-release stores are buffered and land at the
// boundary in cycle order — before any retry's acquisitions. by/addr
// carry the aggressor thread and conflicting metadata word into the
// Abort value (-1/0 when unknown).
func (t *Txn) abort(reason Reason, by int, addr uint64) {
	t.rollback(reason)
	panic(Abort{Reason: reason, By: by, Addr: addr})
}

// Fault tears the active transaction down after its body raised a
// runtime fault, without unwinding further: under the sharded engine an
// attempt can read mixed-epoch state that commit-time validation would
// reject, and crash in workload code before reaching that validation.
// Returns the abort the caller should treat as recovered, or ok=false —
// caller should propagate the fault — when no transaction was in flight.
func (t *Txn) Fault() (a Abort, ok bool) {
	if !t.active {
		return Abort{}, false
	}
	t.rollback(ReasonFault)
	return Abort{Reason: ReasonFault, By: -1}, true
}

// rollback is abort without the unwind: release locks, count, back off.
// Protocols that hold no locks at abort time (tl2 outside commit, norec
// always) have an empty owned log, so the release loop is a no-op.
func (t *Txn) rollback(reason Reason) {
	s := t.sys
	for _, oe := range t.owned {
		t.proc.Store(oe.lockAddr, versionWord(oe.version))
	}
	t.clearSets()
	t.active = false
	t.attempts++
	tid := t.proc.ID()
	s.Counters.Inc(tid, "stm:abort")
	s.Counters.Inc(tid, abortCounters[reason])
	// Bounded exponential backoff with deterministic jitter.
	shift := t.attempts
	if shift > 12 {
		shift = 12
	}
	window := uint64(1) << uint(shift+4)
	if window > s.MaxBackoff {
		window = s.MaxBackoff
	}
	backoff := uint64(t.proc.Rng.Intn(int(window))) + 8
	t.proc.RecordEvent(obs.Event{
		Cycle: t.proc.Cycles(), Arg: backoff,
		Kind: obs.KBackoff, Cause: reason.ObsCause(),
	})
	t.proc.AddCycles(backoff)
}

// validate checks that every version-based read entry is still
// consistent at this instant, tolerating locks this transaction already
// held when the entry was recorded (tinystm's encounter-time discipline;
// tl2 commit validation uses validateTL2 instead). Lock words are peeked
// (they are almost always cache-resident for the validating thread; the
// time cost is charged explicitly).
func (t *Txn) validate() bool {
	s := t.sys
	t.proc.AddCycles(uint64(len(t.reads)) * s.cfg.STM.ValidatePerRead)
	for _, re := range t.reads {
		w := t.proc.PeekShared(re.lockAddr)
		if isLocked(w) {
			if !t.ownedIdx.Contains(re.lockAddr) {
				t.noteValidationFail()
				return false
			}
			continue
		}
		if wordVersion(w) != re.version {
			t.noteValidationFail()
			return false
		}
	}
	return true
}

func (t *Txn) noteValidationFail() {
	t.proc.RecordCounter("stm:validation.fail", 1)
}

// extend tries to move the snapshot forward (time-based design): reread
// the clock and revalidate.
func (t *Txn) extend() bool {
	s := t.sys
	now := wordVersion(t.proc.Load(s.clockAddr))
	if !t.validate() {
		return false
	}
	t.rv = now
	s.Counters.Inc(t.proc.ID(), "stm:extend")
	t.proc.RecordCounter("stm:extend", 1)
	return true
}

// Load performs a transactional read: read-own-write from the write
// buffer, then the protocol's read path.
//
//rtm:hot
func (t *Txn) Load(addr uint64) int64 {
	if !t.active {
		panic("stm: Load outside transaction")
	}
	s := t.sys
	t.proc.AddCycles(s.cfg.STM.ReadInstrCost)
	t.proc.AddInstr(3)
	if i, ok := t.writeIdx.Get(addr); ok {
		return t.writes[i].val // read-own-write from the write buffer
	}
	return s.proto.Load(t, addr)
}

// Store performs a transactional write: update an existing write-buffer
// entry in place, then the protocol's write path.
//
//rtm:hot
func (t *Txn) Store(addr uint64, val int64) {
	if !t.active {
		panic("stm: Store outside transaction")
	}
	s := t.sys
	t.proc.AddCycles(s.cfg.STM.WriteInstrCost)
	t.proc.AddInstr(4)
	if i, ok := t.writeIdx.Get(addr); ok {
		t.writes[i].val = val
		return
	}
	s.proto.Store(t, addr, val)
}

// putWrite appends addr/val to the ordered write log and indexes it.
//
//rtm:hot
func (t *Txn) putWrite(addr uint64, val int64) {
	t.writeIdx.Put(addr, int32(len(t.writes)))
	t.writes = append(t.writes, writeEntry{addr: addr, val: val})
}

// Commit publishes the transaction: read-only commits are free under
// all three protocols (the snapshot is already consistent); writing
// commits run the protocol's commit sequence.
func (t *Txn) Commit() {
	if !t.active {
		panic("stm: Commit outside transaction")
	}
	s := t.sys
	t.proc.AddCycles(s.cfg.STM.TxCommitCost)
	t.proc.AddInstr(4)
	if len(t.writes) == 0 {
		// Read-only fast path: snapshot is already consistent.
		t.finish()
		s.Counters.Inc(t.proc.ID(), "stm:commit")
		return
	}
	s.proto.Commit(t)
}

func (t *Txn) finish() {
	t.clearSets()
	t.active = false
	t.attempts = 0
}

func (t *Txn) clearSets() {
	t.writeIdx.Clear()
	t.ownedIdx.Clear()
	t.writes = t.writes[:0]
	t.owned = t.owned[:0]
	t.reads = t.reads[:0]
	t.vreads = t.vreads[:0]
}

// AbortVoluntarily aborts the current transaction (STAMP's restart).
func (t *Txn) AbortVoluntarily() {
	if !t.active {
		panic("stm: abort outside transaction")
	}
	t.abort(ReasonNone, -1, 0)
}
