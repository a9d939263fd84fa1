package sim

import (
	"fmt"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/testbarrier"
)

func run(t *testing.T, n int, seed uint64, body func(*Proc)) Result {
	t.Helper()
	cfg := arch.Haswell()
	h := mem.New(cfg)
	return Run(cfg, h, n, seed, nil, body)
}

func TestSingleThreadClock(t *testing.T) {
	res := run(t, 1, 1, func(p *Proc) {
		p.Work(100)
		p.Load(0) // cold: Mem latency
		p.Load(0) // warm: L1 latency
	})
	cfg := arch.Haswell()
	want := 100 + cfg.Lat.Mem + cfg.Lat.L1Hit
	if res.Cycles != want {
		t.Fatalf("cycles = %d, want %d", res.Cycles, want)
	}
	if res.Instr[0] != 102 {
		t.Fatalf("instr = %d, want 102", res.Instr[0])
	}
}

func TestParallelRegionTimeIsMax(t *testing.T) {
	res := run(t, 4, 1, func(p *Proc) {
		p.Work(uint64(100 * (p.ID() + 1)))
	})
	if res.Cycles != 400 {
		t.Fatalf("region cycles = %d, want 400 (slowest thread)", res.Cycles)
	}
	for i, c := range res.ThreadCycles {
		if want := uint64(100 * (i + 1)); c != want {
			t.Errorf("thread %d cycles = %d, want %d", i, c, want)
		}
	}
}

func TestCoreAssignment(t *testing.T) {
	cores := make([]int, 8)
	run(t, 8, 1, func(p *Proc) {
		cores[p.ID()] = p.Core()
	})
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i, c := range cores {
		if c != want[i] {
			t.Fatalf("thread %d on core %d, want %d", i, c, want[i])
		}
	}
}

func TestMinClockInterleaving(t *testing.T) {
	// Thread 0 does cheap ops, thread 1 expensive ops; observe that the
	// global order of stores to a log is by clock.
	var order []int
	cfg := arch.Haswell()
	h := mem.New(cfg)
	Run(cfg, h, 2, 1, nil, func(p *Proc) {
		cost := uint64(10)
		if p.ID() == 1 {
			cost = 35
		}
		for i := 0; i < 4; i++ {
			p.Work(cost)
			order = append(order, p.ID())
		}
	})
	// Clocks after each op: t0: 10,20,30,40; t1: 35,70,105,140.
	want := []int{0, 0, 0, 1, 0, 1, 1, 1}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (uint64, uint64) {
		cfg := arch.Haswell()
		h := mem.New(cfg)
		res := Run(cfg, h, 4, 99, nil, func(p *Proc) {
			for i := 0; i < 500; i++ {
				addr := uint64(p.Rng.Intn(1024)) * arch.WordSize
				if p.Rng.Bool(0.3) {
					p.Store(addr, int64(i))
				} else {
					p.Load(addr)
				}
			}
		})
		return res.Cycles, res.MemStats.L1Hits
	}
	c1, h1 := runOnce()
	c2, h2 := runOnce()
	if c1 != c2 || h1 != h2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", c1, h1, c2, h2)
	}
}

func TestSharedMemoryVisibility(t *testing.T) {
	b := testbarrier.New("stored", 2)
	var got int64
	run(t, 2, 1, func(p *Proc) {
		if p.ID() == 0 {
			p.Store(64, 7777)
		}
		b.Wait(p)
		if p.ID() == 1 {
			got = p.Load(64)
		}
	})
	if got != 7777 {
		t.Fatalf("thread 1 read %d, want 7777", got)
	}
}

func TestPreOpHook(t *testing.T) {
	calls := 0
	run(t, 1, 1, func(p *Proc) {
		p.PreOp = func() { calls++ }
		p.Load(0)
		p.Store(8, 1)
		p.Work(5)
		p.Pause()
	})
	if calls != 4 {
		t.Fatalf("PreOp calls = %d, want 4", calls)
	}
}

func TestRunPanicsOnBadThreadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := arch.Haswell()
	Run(cfg, mem.New(cfg), 9, 1, nil, func(p *Proc) {})
}

func TestMemStatsDelta(t *testing.T) {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	Run(cfg, h, 1, 1, nil, func(p *Proc) { p.Load(0) })
	res := Run(cfg, h, 1, 1, nil, func(p *Proc) { p.Load(0) })
	// Second region should see only an L1 hit (cache stays warm).
	if res.MemStats.MemAccesses != 0 || res.MemStats.L1Hits != 1 {
		t.Fatalf("second region stats: %+v", res.MemStats)
	}
}

func TestSetupHook(t *testing.T) {
	ids := map[int]bool{}
	cfg := arch.Haswell()
	Run(cfg, mem.New(cfg), 4, 1, func(p *Proc) { ids[p.ID()] = true }, func(p *Proc) {})
	if len(ids) != 4 {
		t.Fatalf("setup saw %d procs, want 4", len(ids))
	}
}

func TestHyperThreadsShareL1(t *testing.T) {
	// Threads 0 and 4 are on core 0: thread 4's accesses must hit lines
	// loaded by thread 0.
	cfg := arch.Haswell()
	h := mem.New(cfg)
	b := testbarrier.New("loaded", 5)
	var cost uint64
	Run(cfg, h, 5, 1, nil, func(p *Proc) {
		if p.ID() == 0 {
			p.Load(0)
		}
		b.Wait(p)
		if p.ID() == 4 {
			before := p.Cycles()
			p.Load(0)
			cost = p.Cycles() - before
		}
	})
	if cost != cfg.Lat.L1Hit {
		t.Fatalf("HT sibling load cost = %d, want L1 hit %d", cost, cfg.Lat.L1Hit)
	}
}

func TestHyperThreadPipelineSharing(t *testing.T) {
	// Two threads on the same core must each run slower than alone, but
	// two threads on different cores must not.
	cfg := arch.Haswell()
	solo := Run(cfg, mem.New(cfg), 1, 1, nil, func(p *Proc) { p.Work(1000) })
	twoCores := Run(cfg, mem.New(cfg), 2, 1, nil, func(p *Proc) { p.Work(1000) })
	if twoCores.ThreadCycles[0] != solo.ThreadCycles[0] {
		t.Fatalf("separate cores must run at full speed: %d vs %d",
			twoCores.ThreadCycles[0], solo.ThreadCycles[0])
	}
	// Threads 0 and 4 share core 0.
	sibling := Run(cfg, mem.New(cfg), 5, 1, nil, func(p *Proc) {
		if p.ID() == 0 || p.ID() == 4 {
			p.Work(1000)
		}
	})
	want := uint64(float64(1000) * cfg.HTFactor)
	got := sibling.ThreadCycles[0]
	if got < want-10 || got > want+10 {
		t.Fatalf("HT sibling work cost = %d, want ~%d", got, want)
	}
}

func TestHTPenaltyLiftsWhenSiblingFinishes(t *testing.T) {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	res := Run(cfg, h, 5, 1, nil, func(p *Proc) {
		switch p.ID() {
		case 4:
			p.Work(100) // finishes early
		case 0:
			for i := 0; i < 100; i++ {
				p.Work(100)
			}
		}
	})
	// Thread 0's first ~100 cycles are shared, the rest solo: total must
	// be well below 10000*HTFactor.
	if res.ThreadCycles[0] >= uint64(10000*cfg.HTFactor)-500 {
		t.Fatalf("penalty did not lift after sibling finished: %d", res.ThreadCycles[0])
	}
}

func TestEngineStressMixedOps(t *testing.T) {
	// Heavy mixed workload with barriers: exercises handoff, heap
	// scheduling and HT scaling together; the run must terminate and stay
	// deterministic.
	runOnce := func() uint64 {
		cfg := arch.Haswell()
		h := mem.New(cfg)
		b := testbarrier.New("round", 8)
		res := Run(cfg, h, 8, 21, nil, func(p *Proc) {
			for round := 0; round < 5; round++ {
				for i := 0; i < 200; i++ {
					switch p.Rng.Intn(5) {
					case 0:
						p.Store(uint64(p.Rng.Intn(2048))*arch.WordSize, int64(i))
					case 1:
						p.Load(uint64(p.Rng.Intn(2048)) * arch.WordSize)
					case 2:
						p.Work(uint64(1 + p.Rng.Intn(50)))
					case 3:
						p.Pause()
					default:
						p.Load(uint64(p.Rng.Intn(2048)) * arch.WordSize)
					}
				}
				b.Wait(p)
			}
		})
		return res.Cycles
	}
	a, b2 := runOnce(), runOnce()
	if a != b2 {
		t.Fatalf("stress run nondeterministic: %d vs %d", a, b2)
	}
}

func TestAddWorkCountsInstr(t *testing.T) {
	res := run(t, 1, 1, func(p *Proc) {
		p.AddWork(50)
	})
	if res.Instr[0] != 50 || res.Cycles != 50 {
		t.Fatalf("AddWork: instr=%d cycles=%d", res.Instr[0], res.Cycles)
	}
}

func TestDeadlockPanicsOutOfRun(t *testing.T) {
	// runRecover runs body on n threads and returns what Run panicked
	// with: the panic is raised inside a thread's coroutine and must
	// reach Run's caller, not kill the process.
	runRecover := func(n int, body func(*Proc)) (v any) {
		defer func() { v = recover() }()
		run(t, n, 1, body)
		return nil
	}
	// onChain reports whether threads 0..tid-1 wait on the resume chain
	// below the running thread tid.
	onChain := func(p *Proc) bool {
		for _, q := range p.eng.procs[:p.ID()] {
			if !q.nested {
				return false
			}
		}
		return !p.nested
	}
	type custom struct{ id int }
	want := &custom{id: 7}
	v := runRecover(3, func(p *Proc) {
		p.Work(uint64(10 * (p.ID() + 1)))
		if p.ID() == 1 {
			panic(want)
		}
		p.Work(100)
	})
	if v != want {
		t.Fatalf("body panic: recovered %#v, want the value the body raised", v)
	}

	// Equal costs: thread 0 resumes 1, 1 resumes 2 and 2 resumes 3, so
	// thread 3's panic unwinds three resumes on its way to Run.
	chained := false
	v = runRecover(4, func(p *Proc) {
		if p.ID() == 3 {
			chained = onChain(p)
			panic(want)
		}
		p.Work(1)
	})
	if v != want || !chained {
		t.Fatalf("body panic on top of a 4-deep chain (chain seen: %v): recovered %#v, want the value the body raised", chained, v)
	}
}

// TestBarrierGivesUp is the deadlock check of a miscounted test barrier:
// on either engine, two threads waiting at a barrier of 3 must end Run
// with the barrier's panic, which names it, once a waiter has polled
// testbarrier.MaxPolls times.
func TestBarrierGivesUp(t *testing.T) {
	for _, shards := range []int{0, 2} {
		cfg := arch.Haswell()
		cfg.Shard = arch.Sharding{Shards: shards}
		b := testbarrier.New("short", 3)
		var clock [2]uint64
		v := func() (v any) {
			defer func() { v = recover() }()
			Run(cfg, mem.New(cfg), 2, 1, nil, func(p *Proc) {
				defer func() { clock[p.ID()] = p.Cycles() }()
				b.Wait(p)
			})
			return nil
		}()
		want := fmt.Sprintf("testbarrier: barrier short: 2 of 3 threads arrived, a waiter gave up after %d polls", testbarrier.MaxPolls)
		if v != want {
			t.Fatalf("shards %d: barrier of 3 waited on by 2: recovered %#v, want %q", shards, v, want)
		}
		// The waiter that gave up spent its bound in Pauses and no more.
		if c, want := max(clock[0], clock[1]), uint64(testbarrier.MaxPolls*PauseCycles); c != want {
			t.Fatalf("shards %d: the waiter gave up at cycle %d, want %d", shards, c, want)
		}
	}
}

func TestHandoffAllocatesNothing(t *testing.T) {
	// Threads with identical costs rotate on every op, so each Work is a
	// slow-path handoff (with 4 threads, every fourth one unwinds the
	// resume chain); a long region must allocate no more than a short
	// one (the difference isolates the per-switch path from region
	// set-up).
	cfg := arch.Haswell()
	h := mem.New(cfg)
	for _, n := range []int{2, 4} {
		allocs := func(ops int) float64 {
			return testing.AllocsPerRun(5, func() {
				Run(cfg, h, n, 1, nil, func(p *Proc) {
					for i := 0; i < ops; i++ {
						p.Work(1)
					}
				})
			})
		}
		if short, long := allocs(10), allocs(10000); long != short {
			t.Fatalf("%d threads: allocs per region: %v for 10 ops, %v for 10000; the handoff allocates", n, short, long)
		}
	}
}

// TestHandoffSwitchCounts pins the coroutine switches a handoff costs.
// Threads with identical costs rotate on every op. With 2 threads the
// pick is always resumed directly or sits right below the running
// thread: one switch per handoff. With 4, threads 0-2 each resume the
// next (3 switches) and thread 3 suspends down the chain to thread 0
// (3 more): 6 switches per 4 handoffs. Run's resumes of the chain's
// bottom and a finished coroutine's return are not handoffs.
func TestHandoffSwitchCounts(t *testing.T) {
	const ops = 1000
	for _, tc := range []struct {
		threads  int
		num, den uint64 // switches per handoff
	}{
		{2, 1, 1},
		{4, 3, 2},
	} {
		t.Run(fmt.Sprintf("%d threads", tc.threads), func(t *testing.T) {
			cfg := arch.Haswell()
			h := mem.New(cfg)
			h.Rec = obs.NewRecorder("switches", 0)
			var e *Engine
			Run(cfg, h, tc.threads, 1, func(p *Proc) { e = p.Engine() }, func(p *Proc) {
				for i := 0; i < ops; i++ {
					p.Work(1)
				}
			})
			handoffs := uint64(tc.threads * ops)
			if e.switches != handoffs || h.Rec.Counter("sim:switches") != handoffs {
				t.Fatalf("handoffs = %d, sim:switches = %d, want %d", e.switches, h.Rec.Counter("sim:switches"), handoffs)
			}
			if want := handoffs * tc.num / tc.den; e.coroSwitches != want {
				t.Fatalf("coroutine switches = %d for %d handoffs, want %d", e.coroSwitches, handoffs, want)
			}
		})
	}
}
