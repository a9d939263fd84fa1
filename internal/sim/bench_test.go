package sim

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
)

// BenchmarkYieldFastPath measures the scheduling point when the running
// thread stays the minimum (heap empty after the sibling finishes): the
// yield must cost two compares and no coroutine switch.
func BenchmarkYieldFastPath(b *testing.B) {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	Run(cfg, h, 2, 1, nil, func(p *Proc) {
		if p.ID() == 1 {
			return // leaves thread 0 alone with an empty runnable heap
		}
		for i := 0; i < b.N; i++ {
			p.Work(1)
		}
	})
}

// BenchmarkYieldHandoff measures the slow path: two threads with
// identical costs alternate on every operation, so each yield is a
// replace-min plus one coroutine switch, a resume of the other thread
// or a suspend down to it (see Proc.handoff). One op is two handoffs,
// one per thread.
func BenchmarkYieldHandoff(b *testing.B) {
	benchmarkRotation(b, 2)
}

// BenchmarkYieldHandoff4 is the chain-unwind case: four threads with
// identical costs rotate, so threads 0-2 each resume the next and
// thread 3 suspends down the resume chain to thread 0, 1.5 coroutine
// switches per handoff. One op is four handoffs, one per thread.
func BenchmarkYieldHandoff4(b *testing.B) {
	benchmarkRotation(b, 4)
}

// benchmarkRotation runs n threads of b.N equal-cost ops each.
func benchmarkRotation(b *testing.B, n int) {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	Run(cfg, h, n, 1, nil, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Work(1)
		}
	})
}

// BenchmarkRegionSetup measures per-region fixed costs (engine, procs,
// heap, result slices) for a 4-thread region doing minimal work.
func BenchmarkRegionSetup(b *testing.B) {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg, h, 4, 1, nil, func(p *Proc) { p.Work(1) })
	}
}

// BenchmarkSpinWait measures waits run in place: thread 0 holds a flag
// for b.N Work(10) ops while threads 1-3 wait on it in Spin (an L1-hit
// Load and a Pause per iteration, 14 cycles). An op is the holder's
// Work plus about two waiter steps per waiter, and every waiter step
// runs in the holder's handoff loop, with no coroutine switch.
func BenchmarkSpinWait(b *testing.B) {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	h.Poke(spinFlag, 1)
	b.ReportAllocs()
	b.ResetTimer()
	Run(cfg, h, 4, 1, nil, spinWaitBody(b.N))
}
