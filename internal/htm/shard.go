// Shard-mode RTM: how the HTM model runs under the epoch-synchronized
// sharded engine (internal/sim, shard.go).
//
// Between coherence boundaries the conflict directory, the backing store
// and the performance counters are shared frozen state, so the legacy
// eager-undo protocol (probe the directory and write memory in place at
// every access) cannot run during the parallel phase. Shard mode keeps
// the same requester-wins semantics by moving each piece to where it is
// legal:
//
//   - Conflict probes become deferred operations (DefCustom) replayed at
//     the boundary in (cycle, thread, sequence) order. A probe carries the
//     transaction-attempt generation; probes left behind by an attempt
//     that already aborted are skipped.
//   - Speculative writes go to a private redo buffer instead of eager
//     undo logging; the transaction's own reads overlay the buffer, and
//     commit publishes it at the boundary. Nothing speculative is ever
//     visible to other threads, which is what makes self-aborts local.
//   - Commit parks as an exclusive boundary operation. Conflict kills
//     that order before the commit point (earlier issue cycle) land
//     first and mark the transaction pending, so the commit fails exactly
//     when the serial replay says it must.
//   - Self-inflicted aborts (timer tick, explicit xabort, nest overflow,
//     own-core capacity eviction) roll back locally — clear the sets,
//     discard the redo buffer, drop own speculative cache lines — and
//     defer the directory-claim releases and footprint recording to the
//     boundary at the abort cycle, ordered before any retry's probes.
//   - Probes, slice claims and kills share one requester-wins routine
//     with the classic engine (dir.go): claim, release and kill work on
//     the global directory and the per-core slices alike. Their victims
//     go through abort, which rolls back locally mid-phase (same-core
//     slice conflicts) and through the serial abortTx at a boundary
//     (replayed probes, raw stores, capacity evictions).
//   - Non-transactional accesses keep strong atomicity: raw stores ride
//     the engine's ShardRawStore hook (every buffered or parked plain
//     store kills trackers of its line when it lands), and raw loads and
//     RMWs escalate to exclusive boundary operations when the frozen
//     directory shows a conflicting claim.
//
// Counter increments need no special path: perf.Set keeps one map per
// hardware thread, and a thread's map is written only by its own shard
// worker mid-phase (xbegin, local aborts) or at a serial boundary.
package htm

import (
	"rtmlab/internal/lineset"
	"rtmlab/internal/mem"
	"rtmlab/internal/perf"
	"rtmlab/internal/sim"
)

// DefCustom sub-kinds (sim.ShardDef.Op) used by the HTM layer.
const (
	opReadProbe uint8 = iota
	opWriteProbe
	opReadRelease
	opWriteRelease
	opSetsAbort
)

// initShard wires the shard-mode state for tx. Called from Attach when
// the proc runs under the sharded engine.
func (s *System) initShard(p *sim.Proc, tx *Txn) {
	if tx.redo == nil {
		tx.redo = lineset.NewTable[int64](64)
	}
	if s.bwr == nil {
		s.bwr = lineset.NewTable[uint64](256)
	} else {
		s.bwr.Clear() // epoch ordinals restart with each region's engine
	}
	// Per-core directory slices serve the common case from frozen private
	// state, like the ownership classifier in mem. The L2-bounded read-set
	// ablation keeps its eviction hook slice-unaware, so slices stay off
	// there.
	if s.cfg.TSX.ReadSetLevel != 2 {
		if s.slices == nil {
			s.slices = make([]*lineset.Table[track], s.cfg.Cores)
			for i := range s.slices {
				s.slices[i] = lineset.NewTable[track](64)
			}
		} else {
			for _, sl := range s.slices {
				sl.Clear()
			}
		}
	}
	if tx.commitFn == nil {
		tx.commitFn = func() { s.shardCommit(tx) }
		tx.rawLoadFn = func() { s.shardRawLoadSlow(tx) }
		tx.rawRMWFn = func() { s.shardRawRMWSlow(tx) }
	}
	eng := p.Engine()
	eng.ShardApply = s.shardApply
	eng.ShardRawStore = s.shardRawStore
}

// shardLoad is Txn.Load during the parallel phase: the conflict probe
// either registers in the core's directory slice at once (lines the
// frozen directory shows private to this core) or is deferred to the
// boundary (guarded by the attempt generation), and the read value is
// overlaid with the transaction's own redo buffer.
//
//rtm:hot
func (t *Txn) shardLoad(addr uint64) int64 {
	la := mem.LineAddr(addr)
	if la != t.lastRead {
		if t.readSet.Add(la) && !t.sliceClaim(la, false) {
			// Val carries the issuing epoch ordinal: the value this read
			// captures reflects boundaries < ShardEpoch(), and the replayed
			// probe uses it to detect writes the capture missed.
			t.proc.Defer(sim.ShardDef{Kind: sim.DefCustom, Op: opReadProbe,
				Gen: t.gen, Addr: la, Val: int64(t.proc.ShardEpoch())})
		}
		t.lastRead = la
	}
	v := t.proc.Load(addr) // may park; hooks can roll us back meanwhile
	t.deliverPending()
	if t.redo.Len() != 0 {
		if rv, ok := t.redo.Get(addr); ok {
			return rv
		}
	}
	return v
}

// shardStore is Txn.Store during the parallel phase: probe slice-claimed
// or deferred, value buffered in the redo log (never published before
// commit).
//
//rtm:hot
func (t *Txn) shardStore(addr uint64, val int64) {
	la := mem.LineAddr(addr)
	if la != t.lastWrite {
		if t.writeSet.Add(la) && !t.sliceClaim(la, true) {
			t.proc.Defer(sim.ShardDef{Kind: sim.DefCustom, Op: opWriteProbe, Gen: t.gen, Addr: la})
		}
		t.lastWrite = la
	}
	// Timing first: if the store's own eviction side-effects abort this
	// transaction, the speculative value must never land in the buffer.
	t.proc.StoreTiming(addr)
	t.deliverPending()
	t.redo.Put(addr, val)
}

// sliceClaim tries to record t's conflict claim on la in its core's
// directory slice instead of deferring a boundary probe, and reports
// whether it did. The claim rules keep every conflict path sound without
// reading another core's mid-phase state:
//
//   - Read claims need the line private to the core in the frozen
//     directory (sole sharer, no foreign owner). Any foreign write
//     reaching such a line goes through a boundary context that consults
//     the slices (write-probe replay, raw-store kill, RMW kill, L3
//     eviction), so a reader tracked here is never missed.
//   - Write claims additionally need the core to be the frozen owner:
//     non-transactional foreign loads screen on the frozen owner alone
//     (RawLoad), and every ownership downgrade is preceded by a kill of
//     the claim, so "owner == core" stays true while the claim lives.
//   - The line must be absent from the frozen global directory: a
//     directory entry means cross-core trackers (or their releases)
//     are in flight, and those conflicts must replay in cycle order.
//
// Same-core conflicts resolve at claim time with the usual requester-wins
// rule (claim); the victims are same-shard state, so their local
// rollback is race-free, exactly as in onL1Evict.
//
//rtm:hot
func (t *Txn) sliceClaim(la uint64, write bool) bool {
	s := t.sys
	if s.slices == nil {
		return false
	}
	core := t.proc.Core()
	if write {
		if !s.h.DirExclusive(core, la) {
			return false
		}
	} else if !s.h.DirPrivate(core, la) {
		return false
	}
	if s.dir.Len() != 0 {
		if _, ok := s.dir.Get(la); ok {
			return false
		}
	}
	s.claim(s.slices[core], la, t.proc.ID(), write)
	t.proc.ShardLocalClaim()
	return true
}

// slice returns the directory slice of t's core, or nil when slices are
// off. A claim lives in exactly one place: there or in the global
// directory. The slice is safe to use mid-phase for same-shard
// transactions and in any serial context.
func (t *Txn) slice() *lineset.Table[track] {
	if t.sys.slices == nil {
		return nil
	}
	return t.sys.slices[t.proc.Core()]
}

// shardCommit runs at an epoch boundary (inside the transaction thread's
// exclusive commit op). A conflict kill replayed earlier in this
// boundary — at a cycle before the commit point — has marked the
// transaction pending; the commit then delivers the abort instead.
func (s *System) shardCommit(t *Txn) {
	if t.pending {
		t.pending = false
		panic(t.pendingAbort) //rtmvet:ignore abort delivery at the commit point, once per abort
	}
	p := t.proc
	p.AddCycles(s.cfg.TSX.XEndCost)
	p.AddInstr(1)
	if rec := s.h.Rec; rec != nil {
		rec.HTMSetsAtCommit(t.readSet.Len(), t.writeSet.Len())
	}
	ep := p.ShardEpoch()
	t.redo.Range(func(addr uint64, v *int64) bool {
		s.h.Poke(addr, *v)
		s.bwr.Put(mem.LineAddr(addr), ep)
		return true
	})
	t.redo.Clear()
	s.clearSets(t)
	t.active = false
	t.nest = 0
	t.gen++
	s.Counters.Inc(p.ID(), perf.RTMCommit)
}

// localAbort rolls tx back during the parallel phase, on (or on behalf
// of) its own shard. Nothing speculative has been published — writes
// live in the redo buffer — so rollback is thread-local: drop the
// speculative lines from the core's private caches, discard the buffer,
// and defer the directory-claim releases and footprint recording to the
// boundary at the abort cycle. The releases are unguarded (they must run
// even though the attempt is dead) and order before any retry attempt's
// probes, whose issue cycles are necessarily later.
func (t *Txn) localAbort(a Abort) {
	s := t.sys
	p := t.proc
	if s.h.Rec != nil {
		p.Defer(sim.ShardDef{Kind: sim.DefCustom, Op: opSetsAbort,
			Addr: uint64(t.readSet.Len()), Val: int64(t.writeSet.Len())})
	}
	sl, self := t.slice(), p.ID()
	t.readSet.Range(func(la uint64) bool {
		// Slice-tracked claims are same-shard state: released right here,
		// no boundary trip. Directory claims still need the cycle-ordered
		// release.
		if sl == nil || !release(sl, la, self, false) {
			p.Defer(sim.ShardDef{Kind: sim.DefCustom, Op: opReadRelease, Addr: la})
		}
		return true
	})
	core := p.Core()
	t.writeSet.Range(func(la uint64) bool {
		s.h.DropPrivate(core, la)
		// The boundary op is deferred even for slice-tracked write claims:
		// its directory half degenerates to a no-op, but the shared-level
		// invalidation of the speculative line must still happen there.
		if sl != nil {
			release(sl, la, self, true)
		}
		p.Defer(sim.ShardDef{Kind: sim.DefCustom, Op: opWriteRelease, Addr: la})
		return true
	})
	t.readSet.Clear()
	t.writeSet.Clear()
	t.lastRead = noLine
	t.lastWrite = noLine
	t.redo.Clear()
	t.active = false
	t.nest = 0
	t.gen++
	t.pending = true
	t.pendingAbort = a
	p.AddCycles(s.cfg.TSX.AbortCost)
	s.countAbort(p.ID(), a)
	if s.AbortHook != nil {
		s.AbortHook(p.ID(), a)
	}
}

// shardApply replays the HTM layer's deferred operations at epoch
// boundaries (installed as the engine's ShardApply hook).
func (s *System) shardApply(p *sim.Proc, d *sim.ShardDef) {
	self := p.ID()
	t := s.txs[self]
	switch d.Op {
	case opReadProbe, opWriteProbe:
		if t == nil || !t.active || t.gen != d.Gen {
			return // the issuing attempt is gone; its probe is moot
		}
		la := d.Addr
		write := d.Op == opWriteProbe
		if !write {
			if ep, ok := s.bwr.Get(la); ok && ep >= uint64(d.Val) {
				// The line was boundary-written (a commit write-back or raw
				// store) at or after the epoch whose frozen state this read
				// captured mid-phase (d.Val, stamped at issue). The value the
				// read returned missed that write even though the write's cycle
				// orders before the read's — the classic engine would have
				// returned the new value — so the only consistent outcome is a
				// conflict abort. When issue and replay fall in the same epoch
				// (the common, unskewed case) this reduces to "written earlier
				// in this boundary". A load that parked instead reads live
				// boundary state and cannot be stale, but its probe replays at
				// its own issue epoch, where the test degenerates to the same
				// same-boundary check as before.
				s.abort(t, conflict(la, -1))
				return
			}
		}
		s.claim(s.dir, la, self, write)
	case opReadRelease:
		release(s.dir, d.Addr, self, false)
	case opWriteRelease:
		release(s.dir, d.Addr, self, true)
		// Speculative lines are invalidated on abort (loss of locality);
		// the private-cache half already happened at abort time.
		s.h.Drop(p.Core(), d.Addr)
	case opSetsAbort:
		if rec := s.h.Rec; rec != nil {
			rec.HTMSetsAtAbort(int(d.Addr), int(d.Val))
		}
	}
}

// shardRawStore is the engine's ShardRawStore hook: every plain store
// landing at a boundary (buffered or parked) kills the transactions
// tracking its line — strong atomicity, replayed in cycle order.
func (s *System) shardRawStore(p *sim.Proc, addr uint64) {
	la := mem.LineAddr(addr)
	if s.dir.Len() != 0 || s.slices != nil {
		s.kill(la, p.ID(), true, false)
	}
	s.bwr.Put(la, p.ShardEpoch())
}

// shardRawLoadSlow is RawLoad's exclusive boundary path, entered when
// the frozen directory showed a foreign writer claim on the line or a
// foreign core owned it (a possible slice write claim).
func (s *System) shardRawLoadSlow(t *Txn) {
	p := t.proc
	addr := t.rawAddr
	la := mem.LineAddr(addr)
	s.kill(la, p.ID(), false, false)
	t.rawRet = p.Load(addr)
}

// shardRawRMWSlow is RawRMW's exclusive boundary path: timing, tracker
// kills and the read-modify-write form one serial step.
func (s *System) shardRawRMWSlow(t *Txn) {
	p := t.proc
	addr := t.rawAddr
	la := mem.LineAddr(addr)
	p.AddCycles(s.cfg.Lat.AtomicRMW)
	p.StoreTiming(addr)
	s.kill(la, p.ID(), true, false)
	old := s.h.Peek(addr)
	s.h.Poke(addr, t.rawF(old))
	s.bwr.Put(la, p.ShardEpoch())
	t.rawRet = old
}
