package mem

import (
	"testing"

	"rtmlab/internal/arch"
)

// TestCacheZeroAlloc pins the //rtm:hot contract on the cache fast
// paths: once a cache exists, lookup/present/insert/drop never allocate
// (the tag, recency and directory arrays are fixed at construction; the
// memo is one index).
func TestCacheZeroAlloc(t *testing.T) {
	c := newCache(64, 8, true)
	cycle := func() {
		for la := uint64(0); la < 512; la++ {
			c.insert(la)
			c.lookup(la)
			c.lookupDir(la)
			c.peekLine(la)
			c.present(la)
		}
		for la := uint64(0); la < 512; la += 2 {
			c.drop(la)
		}
	}
	cycle() // warm: nothing to warm, but mirror the steady-state shape
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("cache ops allocate %v allocs/run at steady state", n)
	}
}

// TestHierarchyLoadZeroAlloc covers the full uninstrumented access path:
// with no recorder attached, simulated loads and stores must not
// allocate once the working set has been pulled through the hierarchy.
func TestHierarchyLoadZeroAlloc(t *testing.T) {
	h := New(arch.Haswell())
	const lines = 64
	cycle := func() {
		for i := 0; i < lines; i++ {
			h.Load(0, uint64(i)*64)
			h.Store(0, uint64(i)*64, int64(i))
		}
	}
	cycle() // warm the caches
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("hierarchy access allocates %v allocs/run at steady state", n)
	}
}
