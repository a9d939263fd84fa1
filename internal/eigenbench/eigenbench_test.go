package eigenbench

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/tm"
)

func mk(b tm.Backend) *tm.System { return tm.NewSystem(arch.Haswell(), b) }

func small(threads, loops int) Params {
	p := Default(16 << 10)
	p.Threads = threads
	p.Loops = loops
	return p
}

func TestParamDerivations(t *testing.T) {
	p := Default(16 << 10)
	if p.TxLen() != 100 {
		t.Errorf("txlen = %d", p.TxLen())
	}
	if p.ConflictProbability() != 0 {
		t.Errorf("zero-hot conflict probability = %g", p.ConflictProbability())
	}
}

func TestConflictProbabilityMonotone(t *testing.T) {
	p := small(4, 10)
	p.R1, p.W1 = 9, 1
	var prev float64 = 1.1
	for _, hot := range []int{100, 1000, 10000, 100000} {
		p.HotWords = hot
		c := p.ConflictProbability()
		if c <= 0 || c >= 1 {
			t.Fatalf("hot=%d: P=%g out of (0,1)", hot, c)
		}
		if c >= prev {
			t.Fatalf("P not decreasing with hot size")
		}
		prev = c
	}
}

func TestPlanCounts(t *testing.T) {
	for _, tc := range []struct{ r, w int }{{90, 10}, {0, 10}, {10, 0}, {1, 1}, {468, 52}} {
		pl := plan(tc.r, tc.w)
		writes := 0
		for _, b := range pl {
			if b {
				writes++
			}
		}
		if len(pl) != tc.r+tc.w || writes != tc.w {
			t.Fatalf("plan(%d,%d): len=%d writes=%d", tc.r, tc.w, len(pl), writes)
		}
	}
}

func TestRunAllBackends(t *testing.T) {
	p := small(2, 30)
	for _, b := range []tm.Backend{tm.Seq, tm.Lock, tm.STM, tm.HTM} {
		sys := mk(b)
		q := p
		if b == tm.Seq {
			q = p.Sequential()
		}
		r := Run(sys, q, 1)
		if r.Cycles == 0 || r.Instr == 0 {
			t.Fatalf("%v: empty result", b)
		}
		if r.EnergyJ <= 0 {
			t.Fatalf("%v: energy = %g", b, r.EnergyJ)
		}
	}
}

func TestSmallWSHTMFewAborts(t *testing.T) {
	sys := mk(tm.HTM)
	r := Run(sys, small(4, 100), 1)
	if r.AbortRate > 0.05 {
		t.Fatalf("16KB uncontended working set abort rate = %g", r.AbortRate)
	}
}

func TestHTMSpeedsUpDisjointWork(t *testing.T) {
	p := small(4, 100)
	seq := Run(mk(tm.Seq), p.Sequential(), 1)
	if speedup := float64(seq.Cycles) / float64(Run(mk(tm.HTM), p, 1).Cycles); speedup < 2 {
		t.Fatalf("4-thread disjoint speedup = %g, want > 2", speedup)
	}
}

func TestSTMSlowerThanHTMSmallWS(t *testing.T) {
	// The paper's headline single-run observation: for small working sets
	// RTM beats TinySTM (instrumentation overhead).
	p := small(4, 100)
	rHTM := Run(mk(tm.HTM), p, 1)
	rSTM := Run(mk(tm.STM), p, 1)
	if rHTM.Cycles >= rSTM.Cycles {
		t.Fatalf("RTM (%d cycles) should beat TinySTM (%d) at 16KB WS",
			rHTM.Cycles, rSTM.Cycles)
	}
}

func TestContentionDegradesSTMNotHTM(t *testing.T) {
	// Fig. 7's shape: as contention rises TinySTM degrades while RTM stays
	// roughly flat.
	base := small(4, 100)
	base.MildWords = (64 << 10) / arch.WordSize
	base.R1, base.W1 = 9, 1
	base.R2, base.W2 = 81, 9

	// RTM's line-granularity conflict detection saturates early in the
	// sweep (the paper notes its effective contention is higher for the
	// same configuration), so the comparison is over the moderate-to-high
	// word-contention range where the paper's Fig. 7 lives: there TinySTM
	// degrades while RTM stays roughly flat.
	lowC, highC := base, base
	lowC.HotWords = 100 // moderate word contention (~0.26)
	highC.HotWords = 24 // high word contention (~0.72)

	stmLow := Run(mk(tm.STM), lowC, 1)
	stmHigh := Run(mk(tm.STM), highC, 1)
	htmLow := Run(mk(tm.HTM), lowC, 1)
	htmHigh := Run(mk(tm.HTM), highC, 1)

	if stmHigh.AbortRate <= stmLow.AbortRate {
		t.Fatalf("STM abort rate did not rise with contention: %g vs %g",
			stmLow.AbortRate, stmHigh.AbortRate)
	}
	stmSlowdown := float64(stmHigh.Cycles) / float64(stmLow.Cycles)
	htmSlowdown := float64(htmHigh.Cycles) / float64(htmLow.Cycles)
	if stmSlowdown < 1.2*htmSlowdown {
		t.Fatalf("STM should degrade more than RTM over the sweep: stm %.2fx vs htm %.2fx",
			stmSlowdown, htmSlowdown)
	}
	// At moderate contention TinySTM outperforms RTM (the paper's low-
	// contention observation).
	if stmLow.Cycles >= htmLow.Cycles {
		t.Fatalf("TinySTM should beat RTM at moderate contention: stm=%d htm=%d",
			stmLow.Cycles, htmLow.Cycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := small(4, 50)
	a := Run(mk(tm.HTM), p, 7)
	b := Run(mk(tm.HTM), p, 7)
	if a.Cycles != b.Cycles || a.Aborts != b.Aborts {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestSequentialParams(t *testing.T) {
	p := small(4, 100)
	s := p.Sequential()
	if s.Threads != 1 || s.Loops != 400 {
		t.Fatalf("sequential = %+v", s)
	}
}
