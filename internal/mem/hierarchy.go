package mem

import (
	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
)

// Stats counts memory-system events. Counters are cumulative for the
// lifetime of the hierarchy; callers snapshot and subtract for intervals.
type Stats struct {
	L1Accesses    uint64
	L1Hits        uint64
	L2Accesses    uint64
	L2Hits        uint64
	L3Accesses    uint64
	L3Hits        uint64
	MemAccesses   uint64
	C2CTransfers  uint64 // dirty lines forwarded core-to-core
	Invalidations uint64 // sharer copies killed by remote stores
	Writebacks    uint64 // modified lines written back on eviction/downgrade
	L1Evictions   uint64
	L2Evictions   uint64
	L3Evictions   uint64
	Prefetches    uint64
}

// Add returns s + o, for accumulating multi-phase measurements.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		L1Accesses:    s.L1Accesses + o.L1Accesses,
		L1Hits:        s.L1Hits + o.L1Hits,
		L2Accesses:    s.L2Accesses + o.L2Accesses,
		L2Hits:        s.L2Hits + o.L2Hits,
		L3Accesses:    s.L3Accesses + o.L3Accesses,
		L3Hits:        s.L3Hits + o.L3Hits,
		MemAccesses:   s.MemAccesses + o.MemAccesses,
		C2CTransfers:  s.C2CTransfers + o.C2CTransfers,
		Invalidations: s.Invalidations + o.Invalidations,
		Writebacks:    s.Writebacks + o.Writebacks,
		L1Evictions:   s.L1Evictions + o.L1Evictions,
		L2Evictions:   s.L2Evictions + o.L2Evictions,
		L3Evictions:   s.L3Evictions + o.L3Evictions,
		Prefetches:    s.Prefetches + o.Prefetches,
	}
}

// Sub returns s - o, for interval measurements.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		L1Accesses:    s.L1Accesses - o.L1Accesses,
		L1Hits:        s.L1Hits - o.L1Hits,
		L2Accesses:    s.L2Accesses - o.L2Accesses,
		L2Hits:        s.L2Hits - o.L2Hits,
		L3Accesses:    s.L3Accesses - o.L3Accesses,
		L3Hits:        s.L3Hits - o.L3Hits,
		MemAccesses:   s.MemAccesses - o.MemAccesses,
		C2CTransfers:  s.C2CTransfers - o.C2CTransfers,
		Invalidations: s.Invalidations - o.Invalidations,
		Writebacks:    s.Writebacks - o.Writebacks,
		L1Evictions:   s.L1Evictions - o.L1Evictions,
		L2Evictions:   s.L2Evictions - o.L2Evictions,
		L3Evictions:   s.L3Evictions - o.L3Evictions,
		Prefetches:    s.Prefetches - o.Prefetches,
	}
}

// Hooks are callbacks fired on cache events that the HTM layer turns into
// transaction aborts. Nil hooks are skipped.
type Hooks struct {
	// OnL1Evict fires whenever a line leaves a core's L1 for any reason
	// (capacity victim, L2 eviction cascade, L3 back-invalidation, remote
	// store invalidation). Write-set capacity aborts hang off this.
	OnL1Evict func(core int, lineAddr uint64)
	// OnL2Evict fires whenever a line leaves a core's L2 (capacity victim,
	// L3 back-invalidation, remote store invalidation). Used by the
	// L2-bounded read-set ablation.
	OnL2Evict func(core int, lineAddr uint64)
	// OnL3Evict fires when a line leaves the shared L3 (after all private
	// copies have been back-invalidated). Read-set capacity aborts hang
	// off this.
	OnL3Evict func(lineAddr uint64)
}

// Hierarchy is the full simulated memory system for one machine.
type Hierarchy struct {
	cfg   *arch.Config
	mem   *Memory
	l1    []*cache // per core
	l2    []*cache // per core
	l3    *cache
	Hooks Hooks
	Stats Stats

	// Now is the requesting thread's clock, set by the engine before each
	// access; it drives the optional DRAM-bandwidth queue.
	Now uint64
	// dramFree is the cycle at which the memory channel is next idle.
	dramFree uint64

	// Rec, when non-nil, receives eviction and invalidation events on the
	// owning core's track. Layers above (htm, stm, sim, tm) reach the
	// flight recorder through this field.
	Rec *obs.Recorder

	// shard holds the ownership-classifier state for the epoch-synchronized
	// sharded engine (nil under the classic engine); see shard.go.
	shard *shardState
}

// New builds a hierarchy for the given machine description with a fresh
// backing store. It panics when cfg fails arch.Config.Validate: the
// cache model indexes sets by mask and tracks sharers in 32-bit masks,
// so an invalid geometry would silently mis-simulate.
func New(cfg *arch.Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic("mem: " + err.Error())
	}
	h := &Hierarchy{
		cfg: cfg,
		mem: NewMemory(),
		l3:  newCache(cfg.L3.Sets(), cfg.L3.Ways, true),
	}
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, newCache(cfg.L1.Sets(), cfg.L1.Ways, false))
		h.l2 = append(h.l2, newCache(cfg.L2.Sets(), cfg.L2.Ways, false))
	}
	return h
}

// Mem exposes the backing store (for allocators and checkers).
func (h *Hierarchy) Mem() *Memory { return h.mem }

// Peek reads a word directly from the backing store with no timing or
// coherence effects.
func (h *Hierarchy) Peek(addr uint64) int64 { return h.mem.Read(addr) }

// Poke writes a word directly to the backing store with no timing or
// coherence effects. The TM layers use it for undo-log restoration.
func (h *Hierarchy) Poke(addr uint64, val int64) { h.mem.Write(addr, val) }

// Load performs a timed, coherent read of the word at addr by the given
// core and returns the value and the access latency in cycles.
func (h *Hierarchy) Load(core int, addr uint64) (int64, uint64) {
	la := LineAddr(addr)
	cycles := h.loadLine(core, la)
	return h.mem.Read(addr), cycles
}

// Store performs a timed, coherent write of the word at addr by the given
// core and returns the access latency in cycles.
func (h *Hierarchy) Store(core int, addr uint64, val int64) uint64 {
	la := LineAddr(addr)
	cycles := h.storeLine(core, la)
	h.mem.Write(addr, val)
	return cycles
}

// StoreTiming performs the coherence and timing work of a store without
// writing the value. The HTM layer uses it so that a store whose eviction
// side-effects abort the storing transaction never deposits its
// speculative value.
func (h *Hierarchy) StoreTiming(core int, addr uint64) uint64 {
	return h.storeLine(core, LineAddr(addr))
}

// Touch performs the timing/coherence work of a read without returning
// data (prefetch-like; used by workloads that only care about footprint).
func (h *Hierarchy) Touch(core int, addr uint64) uint64 {
	return h.loadLine(core, LineAddr(addr))
}

func bit(core int) uint32 { return 1 << uint(core) }

func (h *Hierarchy) loadLine(core int, la uint64) uint64 {
	lat := &h.cfg.Lat
	h.Stats.L1Accesses++
	if h.l1[core].lookup(la) {
		h.Stats.L1Hits++
		return lat.L1Hit
	}
	h.Stats.L2Accesses++
	if h.l2[core].lookup(la) {
		h.Stats.L2Hits++
		h.fillL1(core, la)
		h.prefetchNext(core, la)
		return lat.L2Hit
	}
	h.Stats.L3Accesses++
	if dir := h.l3.lookupDir(la); dir != nil {
		h.Stats.L3Hits++
		cost := lat.L3Hit
		if dir.owner >= 0 && int(dir.owner) != core {
			// Dirty in a peer's cache: forward and downgrade M -> S.
			cost = lat.CacheToCache
			h.Stats.C2CTransfers++
			h.Stats.Writebacks++
			dir.owner = -1
		}
		dir.sharers |= bit(core)
		h.fillL2(core, la)
		h.fillL1(core, la)
		h.prefetchNext(core, la)
		return cost
	}
	// Full miss: fetch from memory, install everywhere.
	h.Stats.MemAccesses++
	dir := h.installL3(la)
	dir.sharers = bit(core)
	h.fillL2(core, la)
	h.fillL1(core, la)
	h.prefetchNext(core, la)
	return h.dramLatency()
}

// prefetchNext models the DCU next-line prefetcher: after an L1 miss for
// la, pull la+1 into the private caches if the shared L3 already holds it
// (no latency is charged — the prefetch overlaps subsequent execution, but
// its fills can still evict transactional lines).
func (h *Hierarchy) prefetchNext(core int, la uint64) {
	if !h.cfg.Lat.PrefetchNextLine {
		return
	}
	next := la + 1
	if h.l1[core].present(next) {
		return
	}
	dir := h.l3.peekLine(next)
	if dir == nil {
		// Stream in from memory: no latency is charged to the demand
		// access (the fetch overlaps execution) but it costs a memory
		// access (bandwidth, energy).
		h.Stats.MemAccesses++
		dir = h.installL3(next)
	} else if dir.owner >= 0 && int(dir.owner) != core {
		return // never steal a peer's dirty line speculatively
	}
	dir.sharers |= bit(core)
	h.Stats.Prefetches++
	h.fillL2(core, next)
	h.fillL1(core, next)
}

func (h *Hierarchy) storeLine(core int, la uint64) uint64 {
	lat := &h.cfg.Lat
	h.Stats.L1Accesses++
	l1hit := h.l1[core].lookup(la)
	if !l1hit {
		h.Stats.L2Accesses++
	}
	l2hit := !l1hit && h.l2[core].lookup(la)

	if l1hit || l2hit {
		dir := h.l3.lookupDir(la)
		if dir == nil {
			// Inclusion violated only if the line raced out of L3; treat
			// as a fresh install (should not happen, but stay safe).
			dir = h.installL3(la)
		}
		var cost uint64
		switch {
		case int(dir.owner) == core:
			cost = lat.L1Hit
		case dir.owner >= 0:
			// Peer holds it M: invalidate peer (counts as c2c + inval).
			cost = lat.CacheToCache
			h.Stats.C2CTransfers++
			h.invalidatePeers(core, la, dir)
		case dir.sharers&^bit(core) != 0:
			cost = lat.L1Hit + lat.Invalidate
			h.invalidatePeers(core, la, dir)
		default:
			cost = lat.L1Hit // E -> M silent upgrade
		}
		dir.owner = int8(core)
		dir.sharers = bit(core)
		if !l1hit {
			cost += lat.L2Hit - lat.L1Hit // upgrade served from L2
			h.Stats.L2Hits++
			h.fillL1(core, la)
		} else {
			h.Stats.L1Hits++
		}
		return cost
	}

	h.Stats.L3Accesses++
	if dir := h.l3.lookupDir(la); dir != nil {
		h.Stats.L3Hits++
		cost := lat.L3Hit
		if dir.owner >= 0 && int(dir.owner) != core {
			cost = lat.CacheToCache
			h.Stats.C2CTransfers++
		}
		h.invalidatePeers(core, la, dir)
		dir.owner = int8(core)
		dir.sharers = bit(core)
		h.fillL2(core, la)
		h.fillL1(core, la)
		return cost
	}

	h.Stats.MemAccesses++
	dir := h.installL3(la)
	dir.owner = int8(core)
	dir.sharers = bit(core)
	h.fillL2(core, la)
	h.fillL1(core, la)
	return h.dramLatency()
}

// ResetRegion clears time-anchored state (the DRAM channel reservation)
// at the start of a parallel region, whose thread clocks restart at zero.
func (h *Hierarchy) ResetRegion() {
	h.Now = 0
	h.dramFree = 0
}

// dramLatency returns the latency of one DRAM line fill, including
// queueing behind other in-flight fills when a bandwidth gap is
// configured.
func (h *Hierarchy) dramLatency() uint64 {
	lat := h.cfg.Lat.Mem
	gap := h.cfg.Lat.MemBandwidthGap
	if gap == 0 {
		return lat
	}
	start := h.Now
	if h.dramFree > start {
		lat += h.dramFree - start // queue behind the previous fill
		start = h.dramFree
	}
	h.dramFree = start + gap
	return lat
}

// invalidatePeers kills every copy of la held by cores other than core and
// fires the L1 eviction hook for them.
func (h *Hierarchy) invalidatePeers(core int, la uint64, dir *line) {
	for c := 0; c < h.cfg.Cores; c++ {
		if c == core {
			continue
		}
		if dir.sharers&bit(c) == 0 && int(dir.owner) != c {
			continue
		}
		if h.l1[c].drop(la) {
			h.fireL1Evict(c, la)
		}
		if h.l2[c].drop(la) {
			h.fireL2Evict(c, la)
		}
		h.Stats.Invalidations++
		if h.Rec != nil {
			h.Rec.MemEvent(c, h.Now, obs.KInval, la)
		}
	}
	if dir.owner >= 0 && int(dir.owner) != core {
		h.Stats.Writebacks++
		dir.owner = -1
	}
	dir.sharers &= bit(core)
}

func (h *Hierarchy) fillL1(core int, la uint64) {
	if victim, evicted, _ := h.l1[core].insert(la); evicted {
		h.Stats.L1Evictions++
		h.fireL1Evict(core, victim)
	}
}

func (h *Hierarchy) fillL2(core int, la uint64) {
	victim, evicted, _ := h.l2[core].insert(la)
	if !evicted {
		return
	}
	h.Stats.L2Evictions++
	// L2 is inclusive of L1 in this model: cascade the eviction.
	if h.l1[core].drop(victim) {
		h.fireL1Evict(core, victim)
	}
	h.fireL2Evict(core, victim)
	// If this core owned the victim, its modified data is written back.
	if dir := h.l3.peekLine(victim); dir != nil && int(dir.owner) == core {
		dir.owner = -1
		h.Stats.Writebacks++
	}
}

// installL3 inserts la into L3, back-invalidating the victim everywhere
// (inclusive L3), and returns the new directory entry.
func (h *Hierarchy) installL3(la uint64) *line {
	victim, evicted, entry := h.l3.insert(la)
	if evicted {
		h.Stats.L3Evictions++
		h.backInvalidate(victim)
	}
	return entry
}

// backInvalidate removes victim from every private cache and fires hooks.
// Called when victim has already been removed from L3.
func (h *Hierarchy) backInvalidate(victim uint64) {
	for c := 0; c < h.cfg.Cores; c++ {
		if h.l1[c].drop(victim) {
			h.fireL1Evict(c, victim)
		}
		if h.l2[c].drop(victim) {
			h.fireL2Evict(c, victim)
		}
	}
	if h.Hooks.OnL3Evict != nil {
		h.Hooks.OnL3Evict(victim)
	}
}

func (h *Hierarchy) fireL1Evict(core int, la uint64) {
	if h.Rec != nil {
		h.Rec.MemEvent(core, h.Now, obs.KL1Evict, la)
	}
	if h.Hooks.OnL1Evict != nil {
		h.Hooks.OnL1Evict(core, la)
	}
}

func (h *Hierarchy) fireL2Evict(core int, la uint64) {
	if h.Rec != nil {
		h.Rec.MemEvent(core, h.Now, obs.KL2Evict, la)
	}
	if h.Hooks.OnL2Evict != nil {
		h.Hooks.OnL2Evict(core, la)
	}
}

// Drop silently removes la from core's private caches (no hooks, no stats)
// and clears its ownership. The HTM layer uses it to discard speculative
// lines on abort.
func (h *Hierarchy) Drop(core int, la uint64) {
	h.l1[core].drop(la)
	h.l2[core].drop(la)
	if dir := h.l3.peekLine(la); dir != nil && int(dir.owner) == core {
		dir.owner = -1
	}
}
