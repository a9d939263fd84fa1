package stamp

import (
	"testing"

	"rtmlab/internal/tm"
)

var testBackends = []tm.Backend{tm.Seq, tm.Lock, tm.STM, tm.HTM, tm.Hybrid}

func threadsFor(b tm.Backend) []int {
	if b == tm.Seq {
		return []int{1}
	}
	return []int{1, 2, 4}
}

func TestAllBenchmarksAllBackends(t *testing.T) {
	for _, mk := range []func() Benchmark{
		func() Benchmark { return NewBayes(Test) },
		func() Benchmark { return NewGenome(Test) },
		func() Benchmark { return NewIntruder(Test, false) },
		func() Benchmark { return NewIntruder(Test, true) },
		func() Benchmark { return NewKMeans(Test) },
		func() Benchmark { return NewLabyrinth(Test) },
		func() Benchmark { return NewSSCA2(Test) },
		func() Benchmark { return NewVacation(Test, false) },
		func() Benchmark { return NewVacation(Test, true) },
		func() Benchmark { return NewYada(Test) },
	} {
		name := mk().Name()
		for _, backend := range testBackends {
			for _, n := range threadsFor(backend) {
				b := mk() // fresh instance per run
				res, err := Run(b, backend, n, 42, nil)
				if err != nil {
					t.Errorf("%s/%v/%d threads: validation failed: %v", name, backend, n, err)
					continue
				}
				if res.Cycles == 0 {
					t.Errorf("%s/%v/%d: zero ROI cycles", name, backend, n)
				}
				if backend != tm.Seq && res.Starts == 0 {
					t.Errorf("%s/%v/%d: no transactions started", name, backend, n)
				}
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, backend := range []tm.Backend{tm.STM, tm.HTM} {
		r1, err1 := Run(NewVacation(Test, false), backend, 4, 7, nil)
		r2, err2 := Run(NewVacation(Test, false), backend, 4, 7, nil)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: %v %v", backend, err1, err2)
		}
		if r1.Cycles != r2.Cycles || r1.Aborts != r2.Aborts {
			t.Fatalf("%v: nondeterministic: %d/%d vs %d/%d",
				backend, r1.Cycles, r1.Aborts, r2.Cycles, r2.Aborts)
		}
	}
}

func TestLabyrinthFallsBackUnderHTM(t *testing.T) {
	// The full-scale grid copy must exceed the L1 write set: every
	// hardware attempt dies and the fallback lock serialises routing.
	res, err := Run(NewLabyrinth(Full), tm.HTM, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 {
		t.Fatal("labyrinth routed without fallbacks — the capacity wall is missing")
	}
	if res.WriteCapacity == 0 {
		t.Fatal("no write-capacity aborts recorded")
	}
}

func TestLabyrinthSTMNoCapacityProblem(t *testing.T) {
	res, err := Run(NewLabyrinth(Small), tm.STM, 2, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.AbortRate > 0.85 {
		t.Fatalf("STM labyrinth abort rate %g unexpectedly high", res.AbortRate)
	}
}

func TestVacationPreTouchKillsMisc3(t *testing.T) {
	base, err := Run(NewVacation(Small, false), tm.HTM, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(NewVacation(Small, true), tm.HTM, 4, 5, func(sys *tm.System) {
		sys.Heap.PreTouch = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Misc3 == 0 {
		t.Fatal("baseline vacation shows no page-fault (misc3) aborts")
	}
	if opt.Misc3 >= base.Misc3 {
		t.Fatalf("pre-touch did not reduce misc3 aborts: %d -> %d", base.Misc3, opt.Misc3)
	}
	if opt.Cycles >= base.Cycles {
		t.Fatalf("optimized vacation not faster: %d vs %d", opt.Cycles, base.Cycles)
	}
}

func TestIntruderOptimizationShrinksTransactions(t *testing.T) {
	base, err := Run(NewIntruder(Small, false), tm.HTM, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(NewIntruder(Small, true), tm.HTM, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	cyc := func(r Result) float64 {
		return float64(r.Counters["site:reassembly:cycles"]) /
			float64(r.Counters["site:reassembly:commits"])
	}
	if cyc(opt) >= cyc(base) {
		t.Fatalf("optimized reassembly txn not shorter: %.0f vs %.0f cycles/tx",
			cyc(opt), cyc(base))
	}
	if opt.Cycles >= base.Cycles {
		t.Fatalf("optimized intruder not faster overall: %d vs %d", opt.Cycles, base.Cycles)
	}
}

func TestKMeansRTMBeatsSTM(t *testing.T) {
	// Short transactions, small working set, high locality: the paper's
	// RTM-favourable profile.
	htm, err := Run(NewKMeans(Small), tm.HTM, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	stm, err := Run(NewKMeans(Small), tm.STM, 4, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if htm.Cycles >= stm.Cycles {
		t.Fatalf("RTM kmeans (%d) should beat TinySTM (%d)", htm.Cycles, stm.Cycles)
	}
}

func TestBayesLongTransactions(t *testing.T) {
	res, err := Run(NewBayes(Test), tm.HTM, 2, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	perTx := float64(res.Counters["site:learn:cycles"]) /
		float64(res.Counters["site:learn:commits"])
	if perTx < 2000 {
		t.Fatalf("bayes learn txn only %.0f cycles — surrogate too light", perTx)
	}
}

func TestScaleRegistry(t *testing.T) {
	reg := Registry(Test)
	if len(reg) != 8 {
		t.Fatalf("registry has %d entries, want 8", len(reg))
	}
	names := map[string]bool{}
	for _, b := range reg {
		names[b.Name()] = true
	}
	for _, want := range []string{"bayes", "genome", "intruder", "kmeans", "labyrinth", "ssca2", "vacation", "yada"} {
		if !names[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestAbortBreakdownSums(t *testing.T) {
	res, err := Run(NewIntruder(Small, false), tm.HTM, 4, 11, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.ConflictOrReadCap + res.WriteCapacity + res.Lock + res.Misc3 + res.Misc5
	if res.Aborts > 0 && sum == 0 {
		t.Fatalf("aborts %d but empty breakdown", res.Aborts)
	}
	// The categories may overlap slightly (lock aborts are also conflict
	// aborts in hardware terms) but the derived split must not exceed the
	// total plus the overlap.
	if sum > 2*res.Aborts {
		t.Fatalf("breakdown sum %d wildly exceeds aborts %d", sum, res.Aborts)
	}
}
