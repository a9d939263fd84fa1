// Shard-mode execution: the epoch-synchronized parallel engine.
//
// The classic engine (engine.go) interleaves simulated threads serially
// under a min-clock scheduler. The sharded engine instead partitions the
// physical cores into contiguous shards, runs each shard's threads (as
// coroutines) on a real goroutine worker (the coordinator runs the lowest
// shard with work itself), and quantizes simulated time into coherence
// epochs of Cfg.Shard.Epoch() cycles:
//
//   - Parallel phase: every shard runs its threads (one at a time, in
//     thread-id order) against frozen shared state. Operations served
//     entirely by the thread's own core (L1/L2 hits on owned lines,
//     computation, reads of epoch-consistent memory) complete locally.
//     Asynchronous shared-state effects (buffered plain stores, conflict
//     probes, recorder events) are logged as deferred operations.
//     Synchronous shared-state operations (cache misses, directory
//     transitions, transaction commits, lock CASes) park the thread.
//   - Boundary: when every thread has parked or run past the
//     epoch end, the coordinator merges all deferred and parked
//     operations whose issue cycle lies inside the epoch and executes
//     them serially in (cycle, thread id, sequence) order against the
//     real shared state, then advances the epoch (skipping ahead over
//     empty epochs deterministically).
//
// Determinism: the schedule within a shard is a fixed function of each
// thread's own trajectory; cross-thread interaction happens only at
// boundaries in a total order that is a deterministic function of issue
// cycles — which themselves derive only from per-thread trajectories and
// earlier boundaries. The shard (worker) count partitions *execution*,
// never semantics, so output is byte-identical for any worker count.
// Single-threaded epoch runs replay operations in program order at their
// issue cycles, which coincides with the classic engine's serial order —
// the differential anchor the tests rely on.
package sim

import (
	"rtmlab/internal/lineset"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
)

// Deferred-operation kinds (ShardDef.Kind).
const (
	// DefStore applies a buffered plain store (Addr, Val). The engine's
	// ShardRawStore hook runs first so the HTM layer can perform
	// strong-atomicity conflict kills before the write lands.
	DefStore uint8 = iota
	// DefTouch performs the deferred cache work of an overlapped load
	// whose latency was already charged (STM lock-array reads).
	DefTouch
	// DefMemEvent replays a recorder cache event (the payload event holds
	// core in Aux, line in Arg).
	DefMemEvent
	// DefEvent replays a recorder thread-track event (Proc.RecordEvent).
	DefEvent
	// DefCounter replays a recorder counter (Proc.RecordCounter).
	DefCounter
	// DefCustom is layer-defined and always dispatched to ShardApply
	// (the HTM layer uses it for conflict-directory probes).
	DefCustom
	// DefMemDelta replays an ownership delta from the classifier (Op is
	// the mem.MD* opcode, Addr the line) via Hierarchy.ApplyShardDelta.
	DefMemDelta
)

// ShardDef is one deferred operation, logged during the parallel phase
// and applied at the epoch boundary. It holds no pointers, so a log is
// never scanned by the GC: the recorder payload of a DefEvent,
// DefMemEvent or DefCounter record lives in its thread's side array, at
// index Addr.
type ShardDef struct {
	cycle uint64
	seq   uint64
	Addr  uint64
	Val   int64
	// Kind selects the boundary action; Op and Gen are free payload for
	// DefCustom layers (the HTM layer uses Op as a sub-kind and Gen as a
	// transaction-attempt guard so operations deferred by a dead attempt
	// are skipped).
	Gen  uint32
	Kind uint8
	Op   uint8
}

// defPayload is the recorder payload of a DefEvent or DefMemEvent (ev)
// or DefCounter (name) record.
type defPayload struct {
	ev   obs.Event
	name string
}

// Parked synchronous operation kinds.
const (
	pNone uint8 = iota
	pLoad
	pStore
	pStoreTiming
	pExcl
)

// Per-proc shard status.
const (
	shRun    uint8 = iota // running, or suspended at a yield with nothing pending
	shOpWait              // parked with a synchronous op awaiting its boundary
	shDone                // body returned
)

// procShard is the per-thread state of the sharded engine (Proc.sh; nil
// under the classic engine).
type procShard struct {
	w     *shardWorker
	view  *mem.View
	stats mem.Stats
	// wbuf holds this thread's plain stores (word addr -> value) issued
	// but not yet applied at a boundary, so its own later reads see them
	// (the backing store is frozen mid-epoch).
	wbuf *lineset.Table[int64]
	// defs is the deferred-op log still to replay; side holds the
	// recorder payloads its records index.
	defs []ShardDef
	side []defPayload
	seq  uint64

	status  uint8
	opKind  uint8
	opCycle uint64
	opSeq   uint64
	opAddr  uint64
	opVal   int64
	opFn    func()
	opRet   int64
	// panicVal carries a panic raised inside an exclusive fn (which runs
	// on the coordinator) back to the owning thread's coroutine,
	// preserving the TM layers' abort-by-panic control flow.
	panicVal any

	parks       uint64 // total parks (op parks + epoch-end yield parks)
	opParks     uint64 // parks caused by a synchronous op awaiting its boundary
	localOps    uint64 // memory ops served inside the epoch without parking
	localClaims uint64 // TM conflict claims resolved in a shard-local directory slice

	finishFn func()
}

// shardWorker runs one shard's threads through each parallel phase.
type shardWorker struct {
	se    *shardEngine
	procs []*Proc
	wake  chan struct{} // nil for shard 0, which only the coordinator runs
	// panicVal is a thread body's panic that ended this shard's phase;
	// the coordinator re-raises it to Run's caller.
	panicVal any
}

type shardEngine struct {
	e        *Engine
	epochLen uint64
	end      uint64 // current epoch end (exclusive)
	// workers[0] is shard 0; the rest are the other shards that own a
	// thread, each with its own goroutine.
	workers []*shardWorker
	done    chan struct{}
	heads   []mergeHead // boundary merge cursors, one per proc
	epochs  uint64
	// boundaryOps counts operations replayed serially at boundaries (the
	// serial fraction's numerator, exported as sim:boundary.ops).
	boundaryOps uint64
}

// mergeHead is one thread's cursor in the boundary merge: defs[next:lim]
// remain to replay, followed by the parked op if park is set.
type mergeHead struct {
	next, lim int
	park      bool
}

// cycle returns the issue cycle of the head's next op, and false once
// the head is exhausted.
func (h *mergeHead) cycle(ps *procShard) (uint64, bool) {
	if h.next < h.lim {
		return ps.defs[h.next].cycle, true
	}
	if h.park {
		return ps.opCycle, true
	}
	return 0, false
}

// shardWorkers resolves the configured shard count to a worker count for
// a machine with the given number of cores.
func shardWorkers(shards, cores int) int {
	return min(max(shards, 1), cores)
}

func newShardEngine(e *Engine) *shardEngine {
	cfg := e.Cfg
	nw := shardWorkers(cfg.Shard.Shards, cfg.Cores)
	se := &shardEngine{
		e:        e,
		epochLen: cfg.Shard.Epoch(),
		done:     make(chan struct{}, nw),
		heads:    make([]mergeHead, len(e.procs)),
	}
	e.H.InitShard()
	se.end = se.epochLen
	shards := make([]*shardWorker, nw)
	for i := range shards {
		shards[i] = &shardWorker{se: se}
	}
	for _, p := range e.procs {
		p := p
		sw := shards[p.core*nw/cfg.Cores]
		p.sh = &procShard{
			w:    sw,
			view: e.H.Mem().NewView(),
			wbuf: lineset.NewTable[int64](64),
			finishFn: func() {
				e.coreLive[p.core]--
				e.remaining--
			},
		}
		sw.procs = append(sw.procs, p)
	}
	// Shard 0 runs on the coordinator; a goroutine is started only for
	// every other shard that owns a thread.
	se.workers = append(se.workers, shards[0])
	for _, sw := range shards[1:] {
		if len(sw.procs) > 0 {
			sw.wake = make(chan struct{}, 1)
			se.workers = append(se.workers, sw)
		}
	}
	return se
}

// run executes the region: parallel epochs alternating with serial
// boundaries until every thread's body has returned. Only shards with a
// thread to run take part in a phase: the coordinator runs the lowest of
// them itself (shard 0 whenever it has work) and wakes the workers of the
// rest. A body panic ends its shard's phase; once every woken worker is
// back, the panic of the lowest shard is re-raised to Run's caller.
func (se *shardEngine) run() {
	e := se.e
	others := se.workers[1:]
	for _, w := range others {
		go w.loop()
	}
	defer func() {
		for _, w := range others {
			close(w.wake)
		}
	}()
	for {
		se.epochs++
		e.shardParallel = true
		var own *shardWorker
		woken := 0
		for _, w := range se.workers {
			switch {
			case !w.runnable(se.end):
			case own == nil:
				own = w
			default:
				w.wake <- struct{}{}
				woken++
			}
		}
		e.wakes += uint64(woken)
		if own != nil {
			own.phase()
		}
		for ; woken > 0; woken-- {
			<-se.done
		}
		e.shardParallel = false
		for _, w := range se.workers {
			if v := w.panicVal; v != nil {
				panic(v)
			}
		}
		if se.allDone() {
			break
		}
		se.boundary()
		se.advance()
	}
}

func (se *shardEngine) allDone() bool {
	for _, p := range se.e.procs {
		if p.sh.status != shDone {
			return false
		}
	}
	return true
}

// runnable reports whether one of the shard's threads can run before end.
func (w *shardWorker) runnable(end uint64) bool {
	for _, p := range w.procs {
		if p.sh.status == shRun && p.clock < end {
			return true
		}
	}
	return false
}

// phase runs the shard's threads, one at a time in thread-id order, up
// to the epoch end. A body panic stops the phase and is kept in panicVal.
func (w *shardWorker) phase() {
	defer func() {
		if v := recover(); v != nil {
			w.panicVal = v
		}
	}()
	end := w.se.end
	for _, p := range w.procs {
		for p.sh.status == shRun && p.clock < end {
			p.resume()
		}
	}
}

func (w *shardWorker) loop() {
	for range w.wake {
		w.phase()
		w.se.done <- struct{}{}
	}
}

// mergeOps visits, in (cycle, thread id, sequence) order, every op each
// proc issued before end: its deferred ops, then its parked op (visited
// with d == nil). A proc's def log is (cycle, seq)-sorted and its parked
// op was issued after all of it, so the order is a k-way merge of the
// logs' heads with cycle ties going to the lowest thread id. heads holds
// one cursor per proc; afterwards heads[i].lim is the number of proc i's
// defs visited. The cut is taken before the first
// visit, so ops a visit issues or unparks wait for a later merge.
// Returns the number of ops visited.
func mergeOps(procs []*Proc, heads []mergeHead, end uint64, visit func(p *Proc, d *ShardDef)) uint64 {
	var n uint64
	for i, p := range procs {
		ps := p.sh
		lim := 0
		for lim < len(ps.defs) && ps.defs[lim].cycle < end {
			lim++
		}
		park := ps.status == shOpWait && ps.opCycle < end
		heads[i] = mergeHead{lim: lim, park: park}
		n += uint64(lim)
		if park {
			n++
		}
	}
	for {
		// The earliest head, and the runner-up that bounds how far the
		// earliest thread may drain before the lead changes hands.
		best, next := -1, -1
		var bc, nc uint64
		for i := range heads {
			c, ok := heads[i].cycle(procs[i].sh)
			switch {
			case !ok:
			case best < 0 || c < bc:
				next, nc = best, bc
				best, bc = i, c
			case next < 0 || c < nc:
				next, nc = i, c
			}
		}
		if best < 0 {
			return n
		}
		h, p := &heads[best], procs[best]
		for {
			c, ok := h.cycle(p.sh)
			if !ok || (next >= 0 && (c > nc || (c == nc && next < best))) {
				break
			}
			if h.next < h.lim {
				h.next++
				visit(p, &p.sh.defs[h.next-1])
			} else {
				h.park = false
				visit(p, nil)
			}
		}
	}
}

// boundary executes every deferred and parked operation issued before
// the epoch end serially, in (cycle, thread id, sequence) order, against
// the shared state.
func (se *shardEngine) boundary() {
	e := se.e
	se.boundaryOps += mergeOps(e.procs, se.heads, se.end, se.replay)
	// The ownership deltas are in the live directory now; the next epoch's
	// classifier tables seed afresh from the frozen state.
	e.H.ShardEpochReset()
	for i, p := range e.procs {
		p.sh.consume(se.heads[i].lim)
	}
	if e.remaining == 0 {
		se.flushRemaining()
	}
}

// flushRemaining applies every still-pending deferred op (in order) once
// all thread bodies have finished, so counters and recorder events from
// the final epoch are not lost.
func (se *shardEngine) flushRemaining() {
	se.boundaryOps += mergeOps(se.e.procs, se.heads, ^uint64(0), se.replay)
	for i, p := range se.e.procs {
		p.sh.consume(se.heads[i].lim)
	}
}

// consume drops the first n defs of the log, the ones a boundary
// replayed. A drained log resets in place, with its side array; its
// buffered stores are all in the backing store then, so the write buffer
// is cleared too. Otherwise the defs issued at or after the epoch end
// move to the front, with the side payloads they index.
func (ps *procShard) consume(n int) {
	switch {
	case n == len(ps.defs):
		ps.defs, ps.side = ps.defs[:0], ps.side[:0]
		if ps.wbuf.Len() != 0 {
			ps.wbuf.Clear()
		}
		return
	case n == 0:
		return
	}
	ps.defs = ps.defs[:copy(ps.defs, ps.defs[n:])]
	base := -1
	for i := range ps.defs {
		if d := &ps.defs[i]; d.hasPayload() {
			if base < 0 {
				base = int(d.Addr)
			}
			d.Addr -= uint64(base)
		}
	}
	if base < 0 {
		ps.side = ps.side[:0]
		return
	}
	ps.side = ps.side[:copy(ps.side, ps.side[base:])]
}

// hasPayload reports whether d indexes its thread's side array.
func (d *ShardDef) hasPayload() bool {
	return d.Kind == DefEvent || d.Kind == DefMemEvent || d.Kind == DefCounter
}

// replay executes one op at the boundary: the deferred op d, or p's
// parked op when d is nil.
func (se *shardEngine) replay(p *Proc, d *ShardDef) {
	if d != nil {
		se.applyDef(p, d)
	} else {
		se.execPark(p)
	}
}

// advance moves the epoch end past the earliest pending activity,
// skipping empty epochs (backoff windows, skewed clocks) in one step.
// run calls it only while some thread's body has not returned.
func (se *shardEngine) advance() {
	m := ^uint64(0)
	for _, p := range se.e.procs {
		ps := p.sh
		switch ps.status {
		case shDone:
			continue
		case shOpWait:
			if ps.opCycle < m {
				m = ps.opCycle
			}
		default:
			if p.clock < m {
				m = p.clock
			}
		}
	}
	se.end = (m/se.epochLen + 1) * se.epochLen
}

// applyDef executes one deferred operation at the boundary.
func (se *shardEngine) applyDef(p *Proc, d *ShardDef) {
	h := se.e.H
	h.Now = d.cycle
	switch d.Kind {
	case DefStore:
		if f := se.e.ShardRawStore; f != nil {
			f(p, d.Addr)
		}
		h.Poke(d.Addr, d.Val)
	case DefCustom:
		if ap := se.e.ShardApply; ap != nil {
			ap(p, d)
		}
	case DefMemDelta:
		h.ApplyShardDelta(p.core, d.Op, d.Addr)
	case DefTouch:
		h.Touch(p.core, d.Addr)
	case DefMemEvent:
		if rec := h.Rec; rec != nil {
			ev := &p.sh.side[d.Addr].ev
			rec.MemEvent(int(ev.Aux), ev.Cycle, ev.Kind, ev.Arg)
		}
	case DefEvent:
		if rec := h.Rec; rec != nil {
			rec.Record(p.id, &p.sh.side[d.Addr].ev)
		}
	case DefCounter:
		if rec := h.Rec; rec != nil {
			rec.Add(p.sh.side[d.Addr].name, uint64(d.Val))
		}
	}
}

// execPark executes a thread's parked synchronous operation at the
// boundary. Panics raised by exclusive fns (transaction aborts delivered
// by the TM layers) are captured and re-raised in the owning thread's
// coroutine.
func (se *shardEngine) execPark(p *Proc) {
	ps := p.sh
	h := se.e.H
	h.Now = ps.opCycle
	switch ps.opKind {
	case pLoad:
		v, c := h.Load(p.core, ps.opAddr)
		ps.opRet = v
		p.clock += p.scale(c)
	case pStore:
		if f := se.e.ShardRawStore; f != nil {
			f(p, ps.opAddr)
		}
		c := h.Store(p.core, ps.opAddr, ps.opVal)
		p.clock += p.scale(c)
	case pStoreTiming:
		c := h.StoreTiming(p.core, ps.opAddr)
		p.clock += p.scale(c)
	case pExcl:
		func() {
			defer func() {
				if v := recover(); v != nil {
					ps.panicVal = v
				}
			}()
			ps.opFn()
		}()
	}
	ps.opFn = nil
	ps.opKind = pNone
	ps.status = shRun
}

// ---- Proc-side shard operations (parallel phase) ----

// Sharded reports whether p runs under the epoch-synchronized engine.
func (p *Proc) Sharded() bool { return p.sh != nil }

// ShardEpoch returns the ordinal of the current epoch under the sharded
// engine (1-based; 0 under the classic engine). Boundary replay code uses
// it to scope per-boundary bookkeeping: each boundary belongs to exactly
// one epoch ordinal.
func (p *Proc) ShardEpoch() uint64 {
	if p.sh == nil {
		return 0
	}
	return p.sh.w.se.epochs
}

// ShardLocalClaim records a TM conflict claim resolved inside the epoch
// by a shard-local directory slice (no deferred boundary replay),
// exported as sim:slice.claims. No-op under the classic engine.
//
//rtm:hot
func (p *Proc) ShardLocalClaim() {
	if p.sh != nil {
		p.sh.localClaims++
	}
}

// ShardActive reports whether the sharded engine is in the parallel
// phase of an epoch: shared simulated state is frozen and must not be
// mutated. In every other context (classic engine, epoch boundary,
// outside a region) operations run serially on the direct path. The
// flag is engine-global, so it answers correctly for any proc — in
// particular for a suspended victim thread whose transaction a hook is
// about to abort.
//
//rtm:hot
func (p *Proc) ShardActive() bool {
	return p.sh != nil && p.eng.shardParallel
}

// Exclusive runs fn serially against the shared simulated state: under
// the classic engine it runs inline (the engine is already serial); in
// the shard parallel phase the thread parks and fn runs at the next
// epoch boundary in (cycle, thread) order. fn may use the full direct
// Proc API (timed loads/stores, clock advances); panics unwind in p's
// own coroutine. Hot callers should pre-bind fn once and pass parameters
// through fields to stay allocation-free.
func (p *Proc) Exclusive(fn func()) {
	if p.ShardActive() {
		p.shardParkOp(pExcl, 0, 0, fn)
		return
	}
	fn()
}

// Defer buffers a deferred operation for boundary replay. Only valid in
// the shard parallel phase (callers guard with ShardActive).
//
//rtm:hot
func (p *Proc) Defer(d ShardDef) { p.pushDef(d) }

// RecordEvent sends a thread-track event (cycles region-local) to the
// machine's flight recorder, if one is attached: at once on the classic
// engine and at a boundary, logged for boundary replay in the parallel
// phase (the recorder is single-threaded).
//
//rtm:hot
func (p *Proc) RecordEvent(ev obs.Event) {
	if p.eng.H.Rec != nil { // inlined: the disabled path is one compare
		p.recordEvent(&ev)
	}
}

func (p *Proc) recordEvent(ev *obs.Event) {
	if p.ShardActive() {
		p.pushPayload(DefEvent, 0, defPayload{ev: *ev})
	} else if rec := p.eng.H.Rec; rec != nil {
		rec.Record(p.id, ev)
	}
}

// RecordCounter adds n to the recorder's named counter, if a recorder is
// attached, at once or at the next boundary as RecordEvent does.
func (p *Proc) RecordCounter(name string, n uint64) {
	rec := p.eng.H.Rec
	if rec == nil {
		return
	}
	if p.ShardActive() {
		p.pushPayload(DefCounter, int64(n), defPayload{name: name})
		return
	}
	rec.Add(name, n)
}

// DeferMemEvent implements mem.ShardSink: recorder traffic from
// shard-local cache fills is buffered and replayed at the boundary.
func (p *Proc) DeferMemEvent(core int, kind obs.Kind, lineAddr uint64) {
	p.pushPayload(DefMemEvent, 0, defPayload{ev: obs.Event{
		Cycle: p.clock, Arg: lineAddr, Site: -1, Aux: int32(core), Kind: kind,
	}})
}

// DeferMemDelta implements mem.ShardSink: an ownership delta from the
// classifier is buffered and replayed at the boundary in (cycle, thread,
// sequence) order.
//
//rtm:hot
func (p *Proc) DeferMemDelta(op uint8, lineAddr uint64) {
	p.pushDef(ShardDef{Kind: DefMemDelta, Op: op, Addr: lineAddr})
}

//rtm:hot
func (p *Proc) pushDef(d ShardDef) {
	ps := p.sh
	d.cycle = p.clock
	d.seq = ps.seq
	ps.seq++
	ps.defs = append(ps.defs, d)
}

// pushPayload logs a recorder record of the given kind whose payload
// goes to the side array.
func (p *Proc) pushPayload(kind uint8, val int64, pl defPayload) {
	ps := p.sh
	ps.side = append(ps.side, pl)
	p.pushDef(ShardDef{Kind: kind, Addr: uint64(len(ps.side) - 1), Val: val})
}

// PeekShared returns the current value of addr without timing effects,
// from any engine context. During the shard parallel phase the backing
// store is frozen and Hierarchy.Peek is unsafe (Memory.Read mutates
// shared memos), so the read goes through the thread's own write buffer
// and private view; everywhere else it is a plain Peek.
//
//rtm:hot
func (p *Proc) PeekShared(addr uint64) int64 {
	if p.ShardActive() {
		return p.shardRead(addr)
	}
	return p.eng.H.Peek(addr)
}

// shardRead returns the epoch-consistent value of addr: the thread's own
// buffered store if one is pending, else the frozen backing store.
//
//rtm:hot
func (p *Proc) shardRead(addr uint64) int64 {
	ps := p.sh
	if ps.wbuf.Len() != 0 {
		if v, ok := ps.wbuf.Get(addr); ok {
			return v
		}
	}
	return ps.view.Read(addr)
}

//rtm:hot
func (p *Proc) shardPreOp() {
	if p.PreOp != nil {
		p.PreOp()
	}
}

// shardYield parks the thread when its clock has run past the epoch end.
//
//rtm:hot
func (p *Proc) shardYield() {
	ps := p.sh
	if p.clock < ps.w.se.end {
		return
	}
	ps.parks++
	p.park()
}

// shardParkOp parks the thread with a synchronous operation; the
// coordinator executes it at the boundary of the epoch containing its
// issue cycle and charges the latency. Returns the operation's result.
func (p *Proc) shardParkOp(kind uint8, addr uint64, val int64, fn func()) int64 {
	ps := p.sh
	ps.opKind = kind
	ps.opCycle = p.clock
	ps.opSeq = ps.seq
	ps.seq++
	ps.opAddr = addr
	ps.opVal = val
	ps.opFn = fn
	ps.opRet = 0
	ps.status = shOpWait
	ps.parks++
	ps.opParks++
	p.park()
	if v := ps.panicVal; v != nil {
		ps.panicVal = nil
		panic(v)
	}
	return ps.opRet
}

// shardFinish runs after the thread body returns: the bookkeeping
// (core-liveness, remaining count) is applied at a boundary in cycle
// order so sibling hyper-thread scaling changes deterministically, then
// the body's coroutine returns to its worker.
func (p *Proc) shardFinish() {
	p.shardParkOp(pExcl, 0, 0, p.sh.finishFn)
	p.sh.status = shDone
}

// ---- Shard-path Proc operations ----

//rtm:hot
func (p *Proc) shardLoad(addr uint64) int64 {
	p.shardPreOp()
	ps := p.sh
	if c, ok := p.eng.H.LocalLoad(p.core, addr, &ps.stats, p); ok {
		p.instr++
		p.clock += p.scale(c)
		ps.localOps++
		v := p.shardRead(addr)
		p.shardYield()
		return v
	}
	p.instr++
	v := p.shardParkOp(pLoad, addr, 0, nil)
	p.shardYield()
	return v
}

//rtm:hot
func (p *Proc) shardStore(addr uint64, val int64) {
	p.shardPreOp()
	ps := p.sh
	if c, ok := p.eng.H.LocalStore(p.core, addr, &ps.stats, p); ok {
		p.instr++
		p.clock += p.scale(c)
		ps.localOps++
		ps.wbuf.Put(addr, val)
		p.pushDef(ShardDef{Kind: DefStore, Addr: addr, Val: val})
		p.shardYield()
		return
	}
	p.instr++
	p.shardParkOp(pStore, addr, val, nil)
	p.shardYield()
}

//rtm:hot
func (p *Proc) shardLoadOverlapped(addr uint64) int64 {
	p.shardPreOp()
	ps := p.sh
	if _, ok := p.eng.H.LocalLoad(p.core, addr, &ps.stats, p); ok {
		ps.localOps++
	} else {
		// Not locally cached: the cache-state work happens at the
		// boundary; the latency is overlapped either way.
		p.pushDef(ShardDef{Kind: DefTouch, Addr: addr})
	}
	p.instr++
	p.clock++
	v := p.shardRead(addr)
	p.shardYield()
	return v
}

//rtm:hot
func (p *Proc) shardStoreTiming(addr uint64) {
	p.shardPreOp()
	ps := p.sh
	if c, ok := p.eng.H.LocalStore(p.core, addr, &ps.stats, p); ok {
		p.instr++
		p.clock += p.scale(c)
		ps.localOps++
		p.shardYield()
		return
	}
	p.instr++
	p.shardParkOp(pStoreTiming, addr, 0, nil)
	p.shardYield()
}

//rtm:hot
func (p *Proc) shardWork(n uint64) {
	p.shardPreOp()
	p.instr += n
	p.clock += p.scale(n)
	p.shardYield()
}

//rtm:hot
func (p *Proc) shardPause() {
	p.shardPreOp()
	p.instr++
	p.clock += p.scale(PauseCycles)
	p.shardYield()
}
