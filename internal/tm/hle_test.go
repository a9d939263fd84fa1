package tm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
)

func TestHLECounterAtomicity(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HLE)
	const perThread = 150
	sys.Run(4, 5, func(c *Ctx) {
		for i := 0; i < perThread; i++ {
			c.Atomic(func(tx Tx) {
				tx.Store(0, tx.Load(0)+1)
			})
		}
	})
	if got := sys.H.Peek(0); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

func TestHLEElidesUncontendedSections(t *testing.T) {
	// Disjoint critical sections must elide: near-zero fallbacks.
	sys := NewSystem(arch.Haswell(), HLE)
	sys.Run(4, 7, func(c *Ctx) {
		base := uint64(c.P.ID()) << 20
		for i := 0; i < 100; i++ {
			c.Atomic(func(tx Tx) {
				tx.Store(base, tx.Load(base)+1)
			})
		}
	})
	if f := sys.Counters.Get("tm:hle.fallback"); f > 4 {
		t.Fatalf("%d fallbacks for disjoint elided sections", f)
	}
}

func TestHLEFallsBackOnCapacity(t *testing.T) {
	cfg := arch.Haswell()
	cfg.L1 = arch.CacheGeom{SizeBytes: 8 * arch.LineSize, Ways: 2}
	cfg.L3 = arch.CacheGeom{SizeBytes: 64 * arch.LineSize, Ways: 4}
	sys := NewSystem(cfg, HLE)
	n := cfg.L1.Lines() * 2
	sys.Run(1, 1, func(c *Ctx) {
		c.Atomic(func(tx Tx) {
			for i := 0; i < n; i++ {
				tx.Store(uint64(i)*arch.LineSize, int64(i+1))
			}
		})
	})
	if sys.Counters.Get("tm:hle.fallback") != 1 {
		t.Fatal("overflowing section must fall back to the real lock")
	}
	for i := 0; i < n; i++ {
		if sys.H.Peek(uint64(i)*arch.LineSize) != int64(i+1) {
			t.Fatalf("word %d lost", i)
		}
	}
}

func TestHLEFallsBackMoreThanRTM(t *testing.T) {
	// RTM retries up to MaxRetries before serialising; HLE gets a single
	// elision attempt, so under conflicts it serialises more often.
	run := func(b Backend, counter string) uint64 {
		sys := NewSystem(arch.Haswell(), b)
		sys.Run(4, 3, func(c *Ctx) {
			for i := 0; i < 150; i++ {
				c.Atomic(func(tx Tx) {
					tx.Store(0, tx.Load(0)+1)
					c.P.Work(30)
				})
			}
		})
		return sys.Counters.Get(counter)
	}
	hle := run(HLE, "tm:hle.fallback")
	rtm := run(HTM, "tm:fallback")
	if hle <= rtm {
		t.Fatalf("HLE should serialise more than RTM under contention: hle=%d rtm=%d", hle, rtm)
	}
}

func TestHLEBankTransfers(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HLE)
	const accounts = 16
	for i := 0; i < accounts; i++ {
		sys.H.Poke(uint64(i)*arch.LineSize, 100)
	}
	sys.Run(4, 9, func(c *Ctx) {
		for i := 0; i < 100; i++ {
			from := uint64(c.P.Rng.Intn(accounts)) * arch.LineSize
			to := uint64(c.P.Rng.Intn(accounts)) * arch.LineSize
			c.Atomic(func(tx Tx) {
				tx.Store(from, tx.Load(from)-1)
				tx.Store(to, tx.Load(to)+1)
			})
		}
	})
	var total int64
	for i := 0; i < accounts; i++ {
		total += sys.H.Peek(uint64(i) * arch.LineSize)
	}
	if total != accounts*100 {
		t.Fatalf("total = %d", total)
	}
}

// TestTraceTimeline checks the recorder's transaction timeline against
// the counters: every atomic block commits once (in hardware or on the
// fallback path), every attempt begins, and every abort is recorded.
func TestTraceTimeline(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	rec := obs.NewRecorder("timeline", 0)
	sys.SetRecorder(rec)
	sys.Run(2, 3, func(c *Ctx) {
		for i := 0; i < 30; i++ {
			c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	})
	if got := rec.KindCount(obs.KTxCommit); got != 60 {
		t.Fatalf("commits recorded = %d, want 60", got)
	}
	if got := rec.KindCount(obs.KTxBegin); got < 60 {
		t.Fatalf("begins recorded = %d, want at least 60", got)
	}
	if got := rec.KindCount(obs.KTxAbort); got != sys.Aborts() {
		t.Fatalf("aborts recorded = %d, counted %d", got, sys.Aborts())
	}
}
