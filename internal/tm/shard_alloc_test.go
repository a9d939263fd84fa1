package tm

import (
	"testing"

	"rtmlab/internal/arch"
)

// TestShardAtomicCycleZeroAlloc pins the //rtm:hot contract across the
// sharded stack: once a few transactions have grown the logs, linesets,
// per-thread counter maps and deferred-op buffers to their high-water mark,

// a full atomic read-modify-write cycle — including the epoch-boundary
// park, exchange and replay it triggers — allocates nothing. A new
// allocation on this path would show up as per-transaction garbage in
// every sharded experiment.
// Besides the default configuration (locally-served accesses,
// conflict-slice claims, deferred ownership deltas), each backend runs
// under two ablations that force the park path: the L2-bounded read set
// (no directory slices, so every conflict probe is deferred, and no local
// L2 fills) and the next-line prefetcher (every L1 miss parks).
func TestShardAtomicCycleZeroAlloc(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*arch.Config)
	}{
		{"", func(*arch.Config) {}},
		{"/read-set-l2", func(cfg *arch.Config) { cfg.TSX.ReadSetLevel = 2 }},
		{"/prefetch", func(cfg *arch.Config) { cfg.Lat.PrefetchNextLine = true }},
	}
	for _, b := range []Backend{Lock, STM, HTM, HTMBare, Hybrid} {
		for _, v := range variants {
			b, v := b, v
			t.Run(b.String()+v.name, func(t *testing.T) {
				cfg := shardCfg(2, 0)
				v.mod(cfg)
				sys := NewSystem(cfg, b)
				for i := 0; i < 8; i++ {
					sys.H.Poke(uint64(i)*arch.LineSize, int64(i))
				}
				sys.Run(1, 1, func(c *Ctx) {
					cycle := func() {
						c.Atomic(func(tx Tx) {
							for i := 0; i < 8; i++ {
								a := uint64(i) * arch.LineSize
								tx.Store(a, tx.Load(a)+1)
							}
						})
					}
					for i := 0; i < 8; i++ {
						cycle() // warm: all shard-side buffers reach capacity
					}
					if n := testing.AllocsPerRun(50, cycle); n != 0 {
						t.Errorf("sharded %v atomic cycle allocates %v allocs/run at steady state", b, n)
					}
				})
			})
		}
	}
}
