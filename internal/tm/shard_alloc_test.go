package tm

import (
	"testing"

	"rtmlab/internal/arch"
)

// TestShardAtomicCycleZeroAlloc pins the //rtm:hot contract across the
// sharded stack: once a few transactions have grown the logs, linesets,
// staging counter sets and deferred-op buffers to their high-water mark,
// a full atomic read-modify-write cycle — including the epoch-boundary
// park, exchange and replay it triggers — allocates nothing. A new
// allocation on this path would show up as per-transaction garbage in
// every sharded experiment.
// Runs with the ownership classifier both on (locally-served accesses,
// conflict-slice claims, deferred ownership deltas) and off (the
// park-everything engine), since the two settings take different code
// paths through the shard exchange.
func TestShardAtomicCycleZeroAlloc(t *testing.T) {
	for _, b := range []Backend{Lock, STM, HTM, HTMBare, HLE, Hybrid} {
		for _, noClassifier := range []bool{false, true} {
			b, noClassifier := b, noClassifier
			name := b.String()
			if noClassifier {
				name += "/no-classifier"
			}
			t.Run(name, func(t *testing.T) {
				cfg := shardCfg(2, 0)
				cfg.Shard.NoClassifier = noClassifier
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
