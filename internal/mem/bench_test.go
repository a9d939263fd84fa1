package mem

import (
	"testing"

	"rtmlab/internal/arch"
)

// BenchmarkLoadHit measures the repeat-line L1 hit path — the single
// hottest operation in every simulation — which the last-hit memo in
// cache.lookup and the last-page memo in Memory should keep allocation-
// free and scan-free.
func BenchmarkLoadHit(b *testing.B) {
	h := New(arch.Haswell())
	h.Load(0, 64) // warm the line into L1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, 64)
	}
}

// BenchmarkLoadHitAlternating defeats the single-entry memo on purpose
// to pin the cost of the full set scan: lines 0 and 64 share L1 set 0,
// so every hit also moves its way to the front of the set's recency
// word.
func BenchmarkLoadHitAlternating(b *testing.B) {
	h := New(arch.Haswell())
	h.Load(0, 0)
	h.Load(0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, uint64(i&1)<<12)
	}
}

// BenchmarkLoadMiss measures the full-miss path: L1/L2/L3 lookups, an L3
// install with back-invalidation pressure, and the DRAM fill.
func BenchmarkLoadMiss(b *testing.B) {
	h := New(arch.Haswell())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, uint64(i)*arch.LineSize)
	}
}

// BenchmarkStoreHit measures the repeat-line store upgrade path.
func BenchmarkStoreHit(b *testing.B) {
	h := New(arch.Haswell())
	h.Store(0, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Store(0, 64, int64(i))
	}
}

// BenchmarkMemoryReadWrite measures the backing store alone (page-memo
// fast path on repeat pages).
func BenchmarkMemoryReadWrite(b *testing.B) {
	m := NewMemory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i&511) * arch.WordSize
		m.Write(addr, int64(i))
		if m.Read(addr) != int64(i) {
			b.Fatal("readback mismatch")
		}
	}
}

// BenchmarkL3HitFill cycles a working set twice the size of the L2 and
// far inside the L3: every load misses L1 and L2, hits the L3 and fills
// both private levels over their least recently used ways, so it times
// the victim path of insert.
func BenchmarkL3HitFill(b *testing.B) {
	cfg := arch.Haswell()
	h := New(cfg)
	const lines = 8192 // a power of two: the cycle index is a mask
	if lines != 2*cfg.L2.SizeBytes/arch.LineSize {
		b.Fatalf("working set %d lines is not twice the L2", lines)
	}
	for i := 0; i < lines; i++ {
		h.Load(0, uint64(i)*arch.LineSize) // pull the working set into L3
	}
	before := h.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(0, uint64(i&(lines-1))*arch.LineSize)
	}
	b.StopTimer()
	if d := h.Stats.Sub(before); d.L3Hits != uint64(b.N) || d.L2Evictions != uint64(b.N) {
		b.Fatalf("%d loads: %d L3 hits, %d L2 evictions; want every load an L3 hit that evicts from L2", b.N, d.L3Hits, d.L2Evictions)
	}
}
