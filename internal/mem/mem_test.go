package mem

import (
	"strings"
	"testing"
	"testing/quick"

	"rtmlab/internal/arch"
	"rtmlab/internal/rng"
)

func newH() *Hierarchy { return New(arch.Haswell()) }

// TestNewRejectsInvalidConfig: New validates its config, so a geometry
// the set mask cannot index (384 L2 sets) panics instead of silently
// folding sets together.
func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := arch.Haswell()
	cfg.L2.SizeBytes = 384 * arch.LineSize * cfg.L2.Ways
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "not a power of two") {
			t.Fatalf("New with 384 L2 sets: recovered %v, want a power-of-two panic", r)
		}
	}()
	New(cfg)
}

func TestBackingStoreRoundTrip(t *testing.T) {
	m := NewMemory()
	m.Write(0, 42)
	m.Write(8, -7)
	m.Write(1<<30, 99)
	if got := m.Read(0); got != 42 {
		t.Errorf("Read(0) = %d", got)
	}
	if got := m.Read(8); got != -7 {
		t.Errorf("Read(8) = %d", got)
	}
	if got := m.Read(1 << 30); got != 99 {
		t.Errorf("Read(1<<30) = %d", got)
	}
	if got := m.Read(16); got != 0 {
		t.Errorf("unwritten word = %d, want 0", got)
	}
}

func TestLazyPages(t *testing.T) {
	m := NewMemory()
	if m.Pages() != 0 {
		t.Fatal("fresh memory should have no pages")
	}
	m.Read(123456) // reads must not materialise pages
	if m.Pages() != 0 {
		t.Fatal("read materialised a page")
	}
	m.Write(0, 1)
	m.Write(4096, 1)
	m.Write(4104, 1) // same page as 4096
	if m.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", m.Pages())
	}
}

func TestLoadStoreValues(t *testing.T) {
	h := newH()
	h.Store(0, 64, 1234)
	v, _ := h.Load(0, 64)
	if v != 1234 {
		t.Fatalf("load = %d, want 1234", v)
	}
	v, _ = h.Load(1, 64) // other core sees the same committed value
	if v != 1234 {
		t.Fatalf("cross-core load = %d, want 1234", v)
	}
}

func TestMissThenHitLatencies(t *testing.T) {
	h := newH()
	lat := h.cfg.Lat
	_, c1 := h.Load(0, 0)
	if c1 != lat.Mem {
		t.Errorf("cold load cost = %d, want %d", c1, lat.Mem)
	}
	_, c2 := h.Load(0, 0)
	if c2 != lat.L1Hit {
		t.Errorf("warm load cost = %d, want %d", c2, lat.L1Hit)
	}
	_, c3 := h.Load(0, 8) // same line, different word
	if c3 != lat.L1Hit {
		t.Errorf("same-line load cost = %d, want %d", c3, lat.L1Hit)
	}
}

func TestL1CapacityEviction(t *testing.T) {
	h := newH()
	lines := h.cfg.L1.Lines()
	var evicted []uint64
	h.Hooks.OnL1Evict = func(core int, la uint64) { evicted = append(evicted, la) }
	// Fill L1 exactly: sequential lines spread evenly over sets.
	for i := 0; i < lines; i++ {
		h.Load(0, uint64(i)*arch.LineSize)
	}
	if len(evicted) != 0 {
		t.Fatalf("evictions while filling exactly to capacity: %d", len(evicted))
	}
	h.Load(0, uint64(lines)*arch.LineSize)
	if len(evicted) != 1 {
		t.Fatalf("expected exactly one L1 eviction, got %d", len(evicted))
	}
	if evicted[0] != 0 {
		t.Fatalf("LRU victim = line %d, want 0", evicted[0])
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h := newH()
	lat := h.cfg.Lat
	h.Load(0, 0)
	// Push line 0 out of L1 by filling its set (same set every 64 lines).
	stride := uint64(h.cfg.L1.Sets()) * arch.LineSize
	for i := 1; i <= h.cfg.L1.Ways; i++ {
		h.Load(0, uint64(i)*stride)
	}
	inL1, inL2, inL3 := h.CachedIn(0, 0)
	if inL1 {
		t.Fatal("line 0 should have been evicted from L1")
	}
	if !inL2 || !inL3 {
		t.Fatalf("line 0 should remain in L2/L3: l2=%v l3=%v", inL2, inL3)
	}
	_, c := h.Load(0, 0)
	if c != lat.L2Hit {
		t.Errorf("post-L1-eviction load cost = %d, want L2 hit %d", c, lat.L2Hit)
	}
}

func TestCacheToCacheTransfer(t *testing.T) {
	h := newH()
	lat := h.cfg.Lat
	h.Store(0, 0, 7) // core 0 owns the line M
	_, c := h.Load(1, 0)
	if c != lat.CacheToCache {
		t.Errorf("dirty remote load cost = %d, want c2c %d", c, lat.CacheToCache)
	}
	if h.Stats.C2CTransfers != 1 {
		t.Errorf("c2c count = %d, want 1", h.Stats.C2CTransfers)
	}
	// After the downgrade both cores share; no owner remains.
	_, owner := h.L3Sharers(LineAddr(0))
	if owner != -1 {
		t.Errorf("owner after downgrade = %d, want -1", owner)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	h := newH()
	h.Load(0, 0)
	h.Load(1, 0)
	h.Load(2, 0)
	var evicts []int
	h.Hooks.OnL1Evict = func(core int, la uint64) {
		if la == LineAddr(0) {
			evicts = append(evicts, core)
		}
	}
	h.Store(1, 0, 5)
	if h.Stats.Invalidations == 0 {
		t.Fatal("store to shared line produced no invalidations")
	}
	for _, c := range []int{0, 2} {
		inL1, inL2, _ := h.CachedIn(c, LineAddr(0))
		if inL1 || inL2 {
			t.Errorf("core %d still caches the line after remote store", c)
		}
	}
	sharers, owner := h.L3Sharers(LineAddr(0))
	if owner != 1 || sharers != uint64(bit(1)) {
		t.Errorf("directory after store: owner=%d sharers=%b", owner, sharers)
	}
	if len(evicts) != 2 {
		t.Errorf("L1 evict hooks fired for cores %v, want [0 2]", evicts)
	}
}

func TestSilentEtoMUpgrade(t *testing.T) {
	h := newH()
	lat := h.cfg.Lat
	h.Load(0, 0) // exclusive
	inv := h.Stats.Invalidations
	c := h.Store(0, 0, 1)
	if c != lat.L1Hit {
		t.Errorf("E->M upgrade cost = %d, want %d", c, lat.L1Hit)
	}
	if h.Stats.Invalidations != inv {
		t.Error("E->M upgrade should not invalidate anything")
	}
}

func TestL3EvictionBackInvalidates(t *testing.T) {
	cfg := arch.Haswell()
	// Shrink L3 so the test is fast: 64 sets * 2 ways = 128 lines.
	cfg.L3 = arch.CacheGeom{SizeBytes: 128 * arch.LineSize, Ways: 2}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	h := New(cfg)
	var l3evicted []uint64
	h.Hooks.OnL3Evict = func(la uint64) { l3evicted = append(l3evicted, la) }
	h.Load(0, 0)
	// Fill the set of line 0: lines mapping to set 0 are multiples of 64 lines.
	stride := uint64(cfg.L3.Sets()) * arch.LineSize
	h.Load(0, stride)
	h.Load(0, 2*stride) // evicts line 0 from L3
	if len(l3evicted) != 1 || l3evicted[0] != 0 {
		t.Fatalf("L3 evictions = %v, want [0]", l3evicted)
	}
	inL1, inL2, inL3 := h.CachedIn(0, 0)
	if inL1 || inL2 || inL3 {
		t.Fatal("back-invalidation left stale private copies")
	}
}

func TestDropIsSilent(t *testing.T) {
	h := newH()
	h.Store(0, 0, 9)
	fired := false
	h.Hooks.OnL1Evict = func(int, uint64) { fired = true }
	h.Drop(0, LineAddr(0))
	if fired {
		t.Fatal("Drop fired an eviction hook")
	}
	inL1, inL2, inL3 := h.CachedIn(0, LineAddr(0))
	if inL1 || inL2 {
		t.Fatal("Drop left private copies")
	}
	if !inL3 {
		t.Fatal("Drop should leave the L3 copy")
	}
	if _, owner := h.L3Sharers(LineAddr(0)); owner != -1 {
		t.Fatal("Drop should clear ownership")
	}
	if got := h.Peek(0); got != 9 {
		t.Fatalf("backing value lost: %d", got)
	}
}

func TestPeekPokeNoTiming(t *testing.T) {
	h := newH()
	s := h.Stats
	h.Poke(128, 5)
	if h.Peek(128) != 5 {
		t.Fatal("poke/peek roundtrip failed")
	}
	if h.Stats != s {
		t.Fatal("peek/poke perturbed stats")
	}
}

// Property: after any access sequence, (a) a line present in some L1 or L2
// is present in L3 (inclusion); (b) at most one core owns a line.
func TestCoherenceInvariants(t *testing.T) {
	cfg := arch.Haswell()
	cfg.L3 = arch.CacheGeom{SizeBytes: 256 * arch.LineSize, Ways: 4}
	f := func(seed uint64) bool {
		h := New(cfg)
		r := rng.New(seed)
		const nLines = 600 // bigger than L3 to force evictions
		for op := 0; op < 3000; op++ {
			core := r.Intn(cfg.Cores)
			addr := uint64(r.Intn(nLines)) * arch.LineSize
			if r.Bool(0.3) {
				h.Store(core, addr, int64(op))
			} else {
				h.Load(core, addr)
			}
		}
		for l := uint64(0); l < nLines; l++ {
			owners := 0
			for c := 0; c < cfg.Cores; c++ {
				inL1, inL2, inL3 := h.CachedIn(c, l)
				if (inL1 || inL2) && !inL3 {
					t.Logf("inclusion violated: line %d core %d", l, c)
					return false
				}
			}
			if _, owner := h.L3Sharers(l); owner >= 0 {
				owners++
				// Owner must be a sharer of its own line.
				sh, ow := h.L3Sharers(l)
				if sh&uint64(bit(ow)) == 0 {
					t.Logf("owner %d not in sharer mask %b for line %d", ow, sh, l)
					return false
				}
			}
			_ = owners
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the backing store value always equals the last Store, no matter
// which cores performed the accesses.
func TestValueCoherence(t *testing.T) {
	f := func(seed uint64) bool {
		h := newH()
		r := rng.New(seed)
		shadow := map[uint64]int64{}
		for op := 0; op < 2000; op++ {
			core := r.Intn(4)
			addr := uint64(r.Intn(64)) * arch.WordSize
			if r.Bool(0.5) {
				v := int64(r.Uint32())
				h.Store(core, addr, v)
				shadow[addr] = v
			} else {
				got, _ := h.Load(core, addr)
				if got != shadow[addr] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{L1Accesses: 10, MemAccesses: 3}
	b := Stats{L1Accesses: 4, MemAccesses: 1}
	d := a.Sub(b)
	if d.L1Accesses != 6 || d.MemAccesses != 2 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestLRUWithinSet(t *testing.T) {
	h := newH()
	ways := h.cfg.L1.Ways
	stride := uint64(h.cfg.L1.Sets()) * arch.LineSize
	// Fill one set, touch line 0 again, then overflow: victim must be line 1*stride.
	for i := 0; i < ways; i++ {
		h.Load(0, uint64(i)*stride)
	}
	h.Load(0, 0)
	var victims []uint64
	h.Hooks.OnL1Evict = func(_ int, la uint64) { victims = append(victims, la) }
	h.Load(0, uint64(ways)*stride)
	if len(victims) != 1 || victims[0] != LineAddr(stride) {
		t.Fatalf("victims = %v, want [%d]", victims, LineAddr(stride))
	}
}

func TestDRAMBandwidthQueue(t *testing.T) {
	cfg := arch.Haswell()
	cfg.Lat.MemBandwidthGap = 50
	h := New(cfg)
	// Two back-to-back misses at the same instant: the second queues.
	h.Now = 0
	_, c1 := h.Load(0, 0)
	_, c2 := h.Load(1, 1<<20)
	if c1 != cfg.Lat.Mem {
		t.Fatalf("first miss cost %d", c1)
	}
	if c2 != cfg.Lat.Mem+50 {
		t.Fatalf("queued miss cost %d, want %d", c2, cfg.Lat.Mem+50)
	}
	// A miss far in the future sees a free channel.
	h.Now = 10_000
	_, c3 := h.Load(2, 2<<20)
	if c3 != cfg.Lat.Mem {
		t.Fatalf("spaced miss cost %d", c3)
	}
	// ResetRegion clears the reservation.
	h.Now = 0
	h.Load(3, 3<<20)
	h.ResetRegion()
	if h.Now != 0 {
		t.Fatal("reset failed")
	}
}

func TestDRAMBandwidthDisabledByDefault(t *testing.T) {
	h := New(arch.Haswell())
	_, c1 := h.Load(0, 0)
	_, c2 := h.Load(1, 1<<20)
	if c1 != c2 {
		t.Fatalf("default config should not queue: %d vs %d", c1, c2)
	}
}

func TestNextLinePrefetcher(t *testing.T) {
	cfg := arch.Haswell()
	cfg.Lat.PrefetchNextLine = true
	h := New(cfg)
	// Warm lines 0..3 into L3 via core 1, then stream on core 0: each L1
	// miss should prefetch the next line, making it an L1 hit.
	for i := 0; i < 4; i++ {
		h.Load(1, uint64(i)*arch.LineSize)
	}
	h.Load(0, 0) // miss; prefetches line 1
	if h.Stats.Prefetches == 0 {
		t.Fatal("no prefetch issued")
	}
	_, c := h.Load(0, arch.LineSize)
	if c != cfg.Lat.L1Hit {
		t.Fatalf("prefetched line cost %d, want L1 hit", c)
	}
}

func TestPrefetcherOffByDefault(t *testing.T) {
	h := New(arch.Haswell())
	h.Load(1, 0)
	h.Load(1, arch.LineSize)
	h.Load(0, 0)
	if h.Stats.Prefetches != 0 {
		t.Fatal("prefetcher active in default config")
	}
	_, c := h.Load(0, arch.LineSize)
	if c == arch.Haswell().Lat.L1Hit {
		t.Fatal("line appeared in L1 without a prefetcher")
	}
}

func TestPrefetchNeverStealsDirtyLine(t *testing.T) {
	cfg := arch.Haswell()
	cfg.Lat.PrefetchNextLine = true
	h := New(cfg)
	h.Store(1, arch.LineSize, 7) // core 1 owns line 1 (M)
	h.Load(0, 0)                 // core 0 misses line 0; must not prefetch line 1
	if _, owner := h.L3Sharers(LineAddr(arch.LineSize)); owner != 1 {
		t.Fatal("prefetch disturbed a peer's dirty line")
	}
	inL1, _, _ := h.CachedIn(0, LineAddr(arch.LineSize))
	if inL1 {
		t.Fatal("dirty peer line prefetched")
	}
}

// TestCacheMemoPresentDrop exercises the last-hit memo on the present()
// and drop() fast paths: hits through the memo, hits after the memo went
// stale, and memo invalidation when the memoized line is dropped.
func TestCacheMemoPresentDrop(t *testing.T) {
	c := newCache(4, 2, false)
	c.insert(5)
	c.lookup(5) // prime the memo
	if !c.present(5) || !c.present(5) {
		t.Fatal("present misses a memoized line")
	}
	if c.present(9) {
		t.Fatal("present found an absent line")
	}
	// Scan-path hit must refresh the memo, then drop through the memo.
	c.insert(6)
	if !c.present(6) {
		t.Fatal("present misses after insert")
	}
	if !c.drop(6) || c.present(6) || c.drop(6) {
		t.Fatal("drop through memo broken")
	}
	// Dropping via the set scan with a stale memo for the same tag.
	c.insert(7)
	c.lookup(7)
	victim, evicted, _ := c.insert(11) // same set as 7 (4 sets): 7&3 == 11&3
	_ = victim
	_ = evicted
	if !c.drop(7) {
		t.Fatal("drop misses a present line")
	}
	if c.present(7) {
		t.Fatal("line visible after drop")
	}
	// Reinsert after drop: memo must not resurrect the old entry.
	c.insert(7)
	if !c.present(7) || !c.drop(7) {
		t.Fatal("reinserted line not visible")
	}
}

// TestCacheTagSentinel covers the empty-way tag and the recency word: a
// dropped line that comes back in a different way is found there
// although the memo still points at its old way, count() sees only live
// tags, a hit moves its way to rank 0, a full set evicts the way at the
// last rank, and only a directory cache hands out directory entries.
func TestCacheTagSentinel(t *testing.T) {
	// Lines 1, 5, 9 share set 1: its ways 0 and 1 are tags[2] and tags[3].
	c := newCache(4, 2, true)
	if c.count() != 0 {
		t.Fatalf("new cache count = %d", c.count())
	}
	if c.order[1] != 0x10 {
		t.Fatalf("new set order = %#x, want way 0 at rank 0, way 1 at rank 1", c.order[1])
	}
	c.insert(1)
	c.lookup(1) // memo -> tags[2]
	c.drop(1)
	c.insert(5) // takes the freed tags[2]
	c.insert(1) // lands in tags[3]
	if l := c.lookupDir(1); l != &c.dir[3] {
		t.Fatal("lookup after drop and re-insert returned a stale way")
	}
	if c.count() != 2 {
		t.Fatalf("count = %d, want 2", c.count())
	}
	c.lookup(5) // 1 is now the LRU way
	if c.order[1] != 0x10 {
		t.Fatalf("set order = %#x, want way 0 (line 5) at rank 0, way 1 (line 1) at rank 1", c.order[1])
	}
	victim, evicted, entry := c.insert(9)
	if !evicted || victim != 1 || entry != &c.dir[3] || entry.owner != -1 || entry.sharers != 0 {
		t.Fatalf("full-set insert evicted (%d, %v) into entry %p, want line 1 from tags[3]", victim, evicted, entry)
	}
	if c.order[1] != 0x01 {
		t.Fatalf("set order = %#x, want way 1 (line 9) at rank 0", c.order[1])
	}
	if c.present(1) || !c.present(5) || !c.present(9) || c.count() != 2 {
		t.Fatal("set contents wrong after LRU eviction")
	}
	if !c.drop(5) || c.drop(5) || c.count() != 1 {
		t.Fatal("drop did not free the way")
	}
	c.insert(2) // another set
	if c.count() != 2 {
		t.Fatalf("count = %d, want 2", c.count())
	}

	p := newCache(4, 2, false)
	if _, _, entry := p.insert(1); entry != nil || p.dir != nil || !p.lookup(1) {
		t.Fatal("a cache without a directory keeps directory entries")
	}
}
