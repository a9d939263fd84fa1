package tm_test

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/energy"
	"rtmlab/internal/tm"
)

// ExampleSystem demonstrates the atomic-block API: concurrent increments
// of a shared counter under hardware transactions with the Algorithm-1
// fallback. Runs are deterministic, so the output is exact.
func ExampleSystem() {
	sys := tm.NewSystem(arch.Haswell(), tm.HTM)
	sys.Run(4, 1, func(c *tm.Ctx) {
		for i := 0; i < 100; i++ {
			c.Atomic(func(t tm.Tx) {
				t.Store(0, t.Load(0)+1)
			})
		}
	})
	fmt.Println(sys.H.Peek(0))
	// Output: 400
}

// ExampleCtx_AtomicSite shows per-site statistics collection, the input
// for the paper's Table IV/V per-transaction analyses.
func ExampleCtx_AtomicSite() {
	sys := tm.NewSystem(arch.Haswell(), tm.STM)
	sys.Run(2, 1, func(c *tm.Ctx) {
		for i := 0; i < 10; i++ {
			c.AtomicSite("transfer", func(t tm.Tx) {
				t.Store(0, t.Load(0)+1)
			})
		}
	})
	fmt.Println(sys.Counters.Get("site:transfer:commits"))
	// Output: 20
}

// Example_quickstart runs one bank-transfer workload under every
// backend: no synchronization (one thread doing all the work), a global
// spinlock, TinySTM, and RTM with the paper's Algorithm-1 fallback. It
// compares execution time, package energy and aborts on the simulated
// Core i7-4770. RTM is fastest, because hardware transactions commit
// without instrumentation; TinySTM pays for per-access bookkeeping; the
// global lock serialises the transfers.
func Example_quickstart() {
	const accounts, transfers, threads = 64, 2000, 4
	fmt.Printf("%-8s %8s %9s %6s %s\n", "backend", "cycles", "energy_mJ", "aborts", "balance")
	var seqCycles uint64
	for _, b := range []tm.Backend{tm.Seq, tm.Lock, tm.STM, tm.HTM} {
		cfg := arch.Haswell()
		sys := tm.NewSystem(cfg, b)
		// One account per cache line, each funded with 1000.
		sys.Run(1, 1, func(c *tm.Ctx) {
			for i := 0; i < accounts; i++ {
				c.Store(uint64(i)*arch.LineSize, 1000)
			}
		})
		n, perThread := threads, transfers
		if b == tm.Seq {
			n, perThread = 1, transfers*threads // same total work
		}
		res := sys.Run(n, 7, func(c *tm.Ctx) {
			for i := 0; i < perThread; i++ {
				from := uint64(c.P.Rng.Intn(accounts)) * arch.LineSize
				to := uint64(c.P.Rng.Intn(accounts)) * arch.LineSize
				amount := int64(c.P.Rng.Intn(20))
				c.Atomic(func(t tm.Tx) {
					t.Store(from, t.Load(from)-amount)
					t.Store(to, t.Load(to)+amount)
				})
				c.Work(150) // think time between transfers
			}
		})

		var total int64
		for i := 0; i < accounts; i++ {
			total += sys.H.Peek(uint64(i) * arch.LineSize)
		}
		joules := energy.Compute(cfg, sys.Measure(res, 0)).Total()
		if b == tm.Seq {
			seqCycles = res.Cycles
		}
		fmt.Printf("%-8s %8d %9.2f %6d %7d  (speedup %.2fx)\n", b, res.Cycles, joules*1e3,
			sys.Aborts(), total, float64(seqCycles)/float64(res.Cycles))
	}
	// Output:
	// backend    cycles energy_mJ aborts balance
	// seq       1328000      4.49      0   64000  (speedup 1.00x)
	// lock      1941982     10.11      0   64000  (speedup 0.68x)
	// tinystm   1192821      6.52   1368   64000  (speedup 1.11x)
	// rtm        765008      4.04    491   64000  (speedup 1.74x)
}
