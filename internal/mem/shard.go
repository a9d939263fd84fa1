package mem

import (
	"rtmlab/internal/lineset"
	"rtmlab/internal/obs"
)

// Shard-mode support: the epoch-synchronized sharded engine (internal/sim)
// runs simulated threads concurrently between coherence boundaries. During
// the parallel phase of an epoch, shared state — the backing store, the L3
// and its directory, peer cores' private caches — is frozen: it is read
// concurrently and mutated only at epoch boundaries, on the coordinator,
// in (cycle, thread, sequence) order. This file provides the pieces that
// make the parallel phase race-free:
//
//   - View: a read-only window onto the backing store with private
//     resolution memos (Memory's own memo fields are shared mutable state);
//   - LocalLoad / LocalStore: classify an access as shard-local (served
//     entirely by the requesting core's private L1/L2 with no directory
//     change) and perform it, or report that it must be parked for the
//     boundary. Per-thread counters go to a caller-owned Stats; recorder
//     traffic is routed through a ShardSink because the Recorder is
//     single-threaded.
//
// A core's private L1/L2 are single-owner state in shard mode: hyper-thread
// siblings are always co-located in one shard and a shard runs its threads
// one at a time, so the lookup/insert memo and LRU mutations below are
// safe. The L3 is only ever peeked (peekLine has no memo or LRU effects).

// ShardSink receives side effects of shard-local cache operations that
// cannot touch shared state mid-epoch. Implemented by sim.Proc, which
// buffers them for deterministic boundary replay.
type ShardSink interface {
	// DeferMemEvent buffers a recorder cache event (eviction,
	// invalidation) on the given core's track.
	DeferMemEvent(core int, kind obs.Kind, lineAddr uint64)
	// DeferMemDelta buffers an ownership delta — an L3/directory
	// transition the classifier proved conflict-free against frozen
	// state — for boundary replay via Hierarchy.ApplyShardDelta.
	DeferMemDelta(op uint8, lineAddr uint64)
}

// Ownership-delta opcodes carried by ShardSink.DeferMemDelta.
const (
	// MDLoadShare: a load was served locally (frozen L3 hit with no
	// foreign owner, or a full miss installed by this core). Replay
	// ensures L3 presence, downgrades a since-appeared foreign owner,
	// and adds this core's sharer bit.
	MDLoadShare uint8 = iota
	// MDStoreClaim: a store was served locally against frozen-private
	// state. Replay ensures L3 presence, invalidates any since-appeared
	// peer copies, and claims exclusive ownership for this core.
	MDStoreClaim
	// MDVictimWB: a line left this core's private caches during a local
	// L2 fill. Replay clears this core's directory ownership of the
	// victim (a modified line writes back).
	MDVictimWB
)

// shardState is the per-hierarchy ownership-classifier state for the
// epoch-synchronized sharded engine, allocated by the first InitShard.
// The per-core sets are epoch-scoped: they record only transitions made
// since the last boundary (the frozen L3 directory itself is the
// epoch-start seed) and are cleared by ShardEpochReset. Each set is written exclusively by its
// core's shard worker mid-epoch — the same single-owner contract as the
// private L1/L2 — and read by the coordinator at boundaries.
type shardState struct {
	installed []*lineset.Set // lines this core installed into L3 this epoch
	claimed   []*lineset.Set // lines this core claimed exclusive this epoch
}

// InitShard arms the ownership classifier for a sharded region, reusing
// (and clearing) the tables of an earlier region.
func (h *Hierarchy) InitShard() {
	if h.shard != nil {
		h.ShardEpochReset()
		return
	}
	s := &shardState{
		installed: make([]*lineset.Set, h.cfg.Cores),
		claimed:   make([]*lineset.Set, h.cfg.Cores),
	}
	for i := 0; i < h.cfg.Cores; i++ {
		s.installed[i] = lineset.NewSet(256)
		s.claimed[i] = lineset.NewSet(256)
	}
	h.shard = s
}

// ShardEpochReset clears the epoch-scoped classifier tables. The engine
// calls it at every epoch boundary, after the ownership deltas have been
// replayed into the live directory.
func (h *Hierarchy) ShardEpochReset() {
	s := h.shard
	for i := range s.installed {
		s.installed[i].Clear()
		s.claimed[i].Clear()
	}
}

// ApplyShardDelta replays one ownership delta at an epoch boundary. The
// engine calls it on the coordinator in (cycle, thread, sequence) order
// with Hierarchy.Now set to the originating cycle, so directory state
// evolves deterministically and independently of the worker count.
func (h *Hierarchy) ApplyShardDelta(core int, op uint8, la uint64) {
	switch op {
	case MDLoadShare:
		dir := h.l3.lookupDir(la)
		if dir == nil {
			// Evicted by an earlier boundary op this epoch: reinstall to
			// keep L3 inclusive of the local fill the core performed.
			dir = h.installL3(la)
		}
		if dir.owner >= 0 && int(dir.owner) != core {
			// A peer claimed the line earlier in this boundary; the shared
			// read forces the downgrade/writeback the classic engine would
			// perform.
			dir.owner = -1
			h.Stats.C2CTransfers++
			h.Stats.Writebacks++
		}
		dir.sharers |= bit(core)
	case MDStoreClaim:
		dir := h.l3.lookupDir(la)
		if dir == nil {
			dir = h.installL3(la)
		}
		if dir.owner >= 0 && int(dir.owner) != core {
			h.Stats.C2CTransfers++
		}
		h.invalidatePeers(core, la, dir)
		dir.owner = int8(core)
		dir.sharers = bit(core)
	case MDVictimWB:
		if dir := h.l3.peekLine(la); dir != nil && int(dir.owner) == core {
			dir.owner = -1
			h.Stats.Writebacks++
		}
	}
}

// View is a read-only window onto a Memory with private page-resolution
// memos. Memory.Read mutates the shared last-page/last-directory memos, so
// concurrent readers each need their own View. Reads of pages materialised
// after the View was created are safe: directories and pages are never
// removed, and in shard mode the backing store is only written at epoch
// boundaries, when no View is being read.
type View struct {
	m        *Memory
	lastDN   uint64
	lastDir  *pageDir
	lastPN   uint64
	lastPage *[wordsPerPage]int64
}

// NewView returns a read-only view of m with its own memos.
func (m *Memory) NewView() *View { return &View{m: m} }

// Read returns the word stored at addr (0 for untouched pages).
//
//rtm:hot
//rtm:midepoch
func (v *View) Read(addr uint64) int64 {
	pn := addr >> pageShift
	if p := v.lastPage; p != nil && pn == v.lastPN {
		return p[wordIndex(addr)]
	}
	dn := pn >> dirShift
	dir := v.lastDir
	if dir == nil || dn != v.lastDN {
		dir = v.m.dirs[dn]
		if dir == nil {
			return 0
		}
		v.lastDN, v.lastDir = dn, dir
	}
	p := dir[pn&dirMask]
	if p == nil {
		return 0
	}
	v.lastPN, v.lastPage = pn, p
	return p[wordIndex(addr)]
}

// LocalLoad attempts the shard-local portion of a load by core: an L1
// hit, an L2 hit with an L1 fill, or — through the ownership classifier —
// an L3 access whose frozen directory state proves no foreign coherence
// action is needed (no foreign owner, or a clean full miss),
// served against the private caches with the directory transition
// deferred as an ownership delta. It returns the access latency and true
// if the load completed, or (0, false) if the access must be parked for
// the epoch boundary. Counters go to stats (merged into Hierarchy.Stats
// at region end); eviction hooks fire inline (they are shard-safe by
// contract) and their recorder events are buffered through sink.
//
//rtm:hot
//rtm:midepoch
func (h *Hierarchy) LocalLoad(core int, addr uint64, stats *Stats, sink ShardSink) (uint64, bool) {
	la := LineAddr(addr)
	if h.l1[core].lookup(la) {
		stats.L1Accesses++
		stats.L1Hits++
		return h.cfg.Lat.L1Hit, true
	}
	if h.cfg.Lat.PrefetchNextLine {
		// The DCU next-line prefetcher touches the L3 on every L1 miss;
		// resolve the whole access at the boundary.
		return 0, false
	}
	if h.l2[core].lookup(la) {
		stats.L1Accesses++
		stats.L2Accesses++
		stats.L2Hits++
		h.localFillL1(core, la, stats, sink) //rtmvet:ignore Hooks.OnL1Evict is shard-safe by contract (see Hooks doc); rtmvet cannot see through the func field
		return h.cfg.Lat.L2Hit, true
	}
	s := h.shard
	if sink == nil || h.Hooks.OnL2Evict != nil {
		// No sink, or the L2-ablation eviction hook is wired (it is not
		// shard-safe, so no local L2 fills): park for the boundary.
		return 0, false
	}
	dir := h.l3.peekLine(la)
	if dir != nil && dir.owner >= 0 && int(dir.owner) != core {
		// Dirty in a peer's cache: the forward and downgrade must
		// serialize at the boundary.
		return 0, false
	}
	inL3 := dir != nil || s.installed[core].Contains(la)
	if !inL3 && h.cfg.Lat.MemBandwidthGap != 0 {
		// The DRAM channel queue is boundary-serial state.
		return 0, false
	}
	stats.L1Accesses++
	stats.L2Accesses++
	stats.L3Accesses++
	lat := h.cfg.Lat.L3Hit
	if inL3 {
		stats.L3Hits++
	} else {
		stats.MemAccesses++
		lat = h.cfg.Lat.Mem
		s.installed[core].Add(la)
	}
	h.localFillL2(core, la, stats, sink)
	h.localFillL1(core, la, stats, sink)
	sink.DeferMemDelta(MDLoadShare, la)
	return lat, true
}

// LocalStore attempts the shard-local portion of a store by core. A line
// present in L1/L2 and already exclusively owned needs no directory
// transition at all. Through the ownership classifier, three
// wider classes complete locally with the exclusive claim deferred as an
// ownership delta: a silent E->M upgrade of a line whose frozen state
// shows no foreign copy, a store hitting the frozen L3 on a line private
// to this core, and a clean full miss. Returns (latency, true) on success
// or (0, false) if the store must be parked. The caller is responsible
// for buffering the value (the backing store is frozen mid-epoch).
//
//rtm:hot
//rtm:midepoch
func (h *Hierarchy) LocalStore(core int, addr uint64, stats *Stats, sink ShardSink) (uint64, bool) {
	la := LineAddr(addr)
	l1 := h.l1[core].lookup(la)
	l2 := !l1 && h.l2[core].lookup(la)
	dir := h.l3.peekLine(la)
	s := h.shard
	if l1 || l2 {
		claim := false
		if dir == nil || int(dir.owner) != core || dir.sharers != bit(core) {
			// Not frozen-exclusive: a directory transition is needed. The
			// classifier can still serve it when frozen state shows no
			// foreign copy (a nil dir means this core installed the line
			// this epoch — inclusivity leaves no other way it could be in
			// a private cache).
			if sink == nil {
				return 0, false
			}
			if dir != nil && (dir.sharers&^bit(core) != 0 || (dir.owner >= 0 && int(dir.owner) != core)) {
				return 0, false
			}
			claim = true
		}
		stats.L1Accesses++
		var cost uint64
		if l1 {
			stats.L1Hits++
			cost = h.cfg.Lat.L1Hit
		} else {
			stats.L2Accesses++
			stats.L2Hits++
			h.localFillL1(core, la, stats, sink) //rtmvet:ignore Hooks.OnL1Evict is shard-safe by contract (see Hooks doc); rtmvet cannot see through the func field
			cost = h.cfg.Lat.L2Hit
		}
		if claim && s.claimed[core].Add(la) {
			sink.DeferMemDelta(MDStoreClaim, la)
		}
		return cost, true
	}
	if sink == nil || h.Hooks.OnL2Evict != nil {
		return 0, false
	}
	// Store miss in the private caches: serveable only when frozen state
	// proves the line private — no foreign sharer or owner, or absent
	// from L3 entirely (a clean full miss, or installed by this core this
	// epoch).
	if dir != nil && (dir.sharers&^bit(core) != 0 || (dir.owner >= 0 && int(dir.owner) != core)) {
		return 0, false
	}
	inL3 := dir != nil || s.installed[core].Contains(la)
	if !inL3 && h.cfg.Lat.MemBandwidthGap != 0 {
		return 0, false
	}
	stats.L1Accesses++
	stats.L2Accesses++
	stats.L3Accesses++
	cost := h.cfg.Lat.L3Hit
	if inL3 {
		stats.L3Hits++
	} else {
		stats.MemAccesses++
		cost = h.cfg.Lat.Mem
		s.installed[core].Add(la)
	}
	h.localFillL2(core, la, stats, sink)
	h.localFillL1(core, la, stats, sink)
	s.claimed[core].Add(la)
	sink.DeferMemDelta(MDStoreClaim, la)
	return cost, true
}

// localFillL2 is fillL2 for the shard-local path: stats go to the
// per-thread staging struct, recorder traffic through the sink, and the
// victim's directory owner-clear (the modified-line writeback) is
// deferred as an ownership delta. Only reachable with Hooks.OnL2Evict
// nil — the L2-ablation hook is not shard-safe.
//
//rtm:hot
//rtm:midepoch
func (h *Hierarchy) localFillL2(core int, la uint64, stats *Stats, sink ShardSink) {
	victim, evicted, _ := h.l2[core].insert(la)
	if !evicted {
		return
	}
	stats.L2Evictions++
	// L2 is inclusive of L1 in this model: cascade the eviction.
	if h.l1[core].drop(victim) {
		if h.Rec != nil {
			sink.DeferMemEvent(core, obs.KL1Evict, victim)
		}
		if h.Hooks.OnL1Evict != nil {
			h.Hooks.OnL1Evict(core, victim) //rtmvet:ignore Hooks.OnL1Evict is shard-safe by contract (see Hooks doc); rtmvet cannot see through the func field
		}
	}
	if h.Rec != nil {
		sink.DeferMemEvent(core, obs.KL2Evict, victim)
	}
	// If this core owns the victim (per frozen state or an epoch-local
	// claim), the writeback's owner-clear must replay at the boundary.
	if dir := h.l3.peekLine(victim); (dir != nil && int(dir.owner) == core) ||
		h.shard.claimed[core].Contains(victim) {
		sink.DeferMemDelta(MDVictimWB, victim)
	}
}

// localFillL1 is fillL1 for the shard-local path: stats go to the
// per-thread staging struct and recorder traffic through the sink.
//
//rtm:midepoch
func (h *Hierarchy) localFillL1(core int, la uint64, stats *Stats, sink ShardSink) {
	victim, evicted, _ := h.l1[core].insert(la)
	if !evicted {
		return
	}
	stats.L1Evictions++
	if h.Rec != nil && sink != nil {
		sink.DeferMemEvent(core, obs.KL1Evict, victim)
	}
	if h.Hooks.OnL1Evict != nil {
		h.Hooks.OnL1Evict(core, victim) //rtmvet:ignore Hooks.OnL1Evict is shard-safe by contract (see Hooks doc); rtmvet cannot see through the func field
	}
}

// DropPrivate silently removes la from core's private L1/L2 without
// touching the L3 directory — the private half of Drop, legal mid-epoch
// because a core's private caches are single-owner state in shard mode.
// The HTM layer uses it when a local abort invalidates speculative
// lines; the directory-owner clear is deferred to the boundary.
//
//rtm:midepoch
func (h *Hierarchy) DropPrivate(core int, la uint64) {
	h.l1[core].drop(la)
	h.l2[core].drop(la)
}

// DirOwner returns the directory owner core of la (-1 if unowned or
// absent) without any LRU or memo effects. Safe for concurrent use while
// the directory is frozen mid-epoch.
//
//rtm:hot
//rtm:midepoch
func (h *Hierarchy) DirOwner(la uint64) int {
	if dir := h.l3.peekLine(la); dir != nil {
		return int(dir.owner)
	}
	return -1
}

// DirPrivate reports whether la's frozen directory state shows it held
// by core alone: present with core as the only sharer, and no foreign
// owner. Peek-only — safe mid-epoch.
//
//rtm:hot
//rtm:midepoch
func (h *Hierarchy) DirPrivate(core int, la uint64) bool {
	dir := h.l3.peekLine(la)
	return dir != nil && dir.sharers == bit(core) &&
		(dir.owner < 0 || int(dir.owner) == core)
}

// DirExclusive reports whether la's frozen directory state shows core as
// its exclusive modified-state holder: owner==core with no other sharer.
// Peek-only — safe mid-epoch.
//
//rtm:hot
//rtm:midepoch
func (h *Hierarchy) DirExclusive(core int, la uint64) bool {
	dir := h.l3.peekLine(la)
	return dir != nil && int(dir.owner) == core && dir.sharers == bit(core)
}
