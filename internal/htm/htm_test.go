package htm

import (
	"slices"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/sim"
	"rtmlab/internal/testbarrier"
	"rtmlab/internal/vm"
)

// tinyCfg returns a machine with very small caches so capacity tests are
// fast: L1 holds 8 lines, L2 16, L3 32.
func tinyCfg() *arch.Config {
	cfg := arch.Haswell()
	cfg.L1 = arch.CacheGeom{SizeBytes: 8 * arch.LineSize, Ways: 2}
	cfg.L2 = arch.CacheGeom{SizeBytes: 16 * arch.LineSize, Ways: 4}
	cfg.L3 = arch.CacheGeom{SizeBytes: 32 * arch.LineSize, Ways: 4}
	cfg.TSX.TickPeriod = 0 // no timer aborts unless a test asks for them
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return cfg
}

// atomically retries body until it commits, returning abort causes seen.
func atomically(sys *System, tx *Txn, body func()) []Cause {
	var causes []Cause
	for {
		committed := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if a, is := r.(Abort); is {
						causes = append(causes, a.Cause)
						ok = false
						return
					}
					panic(r)
				}
			}()
			sys.Begin(tx)
			body()
			tx.Commit()
			return true
		}()
		if committed {
			return causes
		}
		if len(causes) > 1000 {
			panic("htm test: transaction cannot commit")
		}
	}
}

// once runs body in a transaction a single time and returns the abort, or
// nil if it committed.
func once(sys *System, tx *Txn, body func()) *Abort {
	var abort *Abort
	func() {
		defer func() {
			if r := recover(); r != nil {
				if a, is := r.(Abort); is {
					abort = &a
					return
				}
				panic(r)
			}
		}()
		sys.Begin(tx)
		body()
		tx.Commit()
	}()
	return abort
}

func TestCommitMakesWritesVisible(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if a := once(sys, tx, func() {
			tx.Store(0, 42)
			tx.Store(64, 43)
		}); a != nil {
			t.Errorf("unexpected abort: %v", a)
		}
	})
	if h.Peek(0) != 42 || h.Peek(64) != 43 {
		t.Fatalf("committed values lost: %d %d", h.Peek(0), h.Peek(64))
	}
	if sys.Counters.Get("RTM_RETIRED:COMMIT") != 1 {
		t.Error("commit counter not incremented")
	}
	if sys.ActiveLines() != 0 {
		t.Error("directory not cleaned after commit")
	}
}

func TestExplicitAbortRollsBack(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	h.Poke(0, 100)
	sys := NewSystem(cfg, h, nil)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		a := once(sys, tx, func() {
			tx.Store(0, 999)
			tx.XAbort(7)
		})
		if a == nil {
			t.Error("expected abort")
			return
		}
		if a.Cause != CauseExplicit {
			t.Errorf("cause = %v", a.Cause)
		}
		if a.Status&StatusExplicit == 0 {
			t.Error("explicit bit not set")
		}
		if ExplicitCode(a.Status) != 7 {
			t.Errorf("xabort code = %d, want 7", ExplicitCode(a.Status))
		}
	})
	if h.Peek(0) != 100 {
		t.Fatalf("speculative write survived abort: %d", h.Peek(0))
	}
}

func TestWriteCapacityWall(t *testing.T) {
	cfg := tinyCfg()
	l1Lines := cfg.L1.Lines() // 8
	for _, n := range []int{l1Lines, l1Lines + 1} {
		h := mem.New(cfg)
		sys := NewSystem(cfg, h, nil)
		var abort *Abort
		sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
			tx := sys.Attach(p)
			abort = once(sys, tx, func() {
				for i := 0; i < n; i++ {
					tx.Store(uint64(i)*arch.LineSize, int64(i))
				}
			})
		})
		if n <= l1Lines {
			if abort != nil {
				t.Errorf("n=%d: unexpected abort %v", n, abort)
			}
		} else {
			if abort == nil {
				t.Fatalf("n=%d: expected write-capacity abort", n)
			}
			if abort.Cause != CauseWriteCapacity {
				t.Errorf("n=%d: cause = %v", n, abort.Cause)
			}
			if abort.Status&StatusCapacity == 0 {
				t.Error("capacity status bit not set")
			}
			// All speculative writes must be rolled back.
			for i := 0; i < n; i++ {
				if v := h.Peek(uint64(i) * arch.LineSize); v != 0 {
					t.Fatalf("line %d leaked value %d after capacity abort", i, v)
				}
			}
		}
	}
}

// TestWriteCapacityWallBusySibling is Fig. 9's hyper-threading effect: a
// sibling thread streaming through its own data shares core 0's L1, so
// the largest write set that commits is about half the L1 (255 of 512
// lines on the i7-4770, where it is 512 alone).
func TestWriteCapacityWallBusySibling(t *testing.T) {
	cfg := arch.Haswell()
	cfg.TSX.TickPeriod = 0
	probe := func(n int) *Abort {
		h := mem.New(cfg)
		sys := NewSystem(cfg, h, nil)
		b := testbarrier.New("TestWriteCapacityWallBusySibling", 5)
		var abort *Abort
		sim.Run(cfg, h, 5, 1, nil, func(p *sim.Proc) {
			tx := sys.Attach(p)
			switch p.ID() {
			case 0:
				abort = once(sys, tx, func() {
					for i := 0; i < n; i++ {
						tx.Store(uint64(i)*arch.LineSize, 1)
					}
				})
			case 4: // shares core 0 with thread 0
				for i := 0; i < 4096; i++ {
					p.Load(64<<20 + uint64(i)*arch.LineSize)
				}
			}
			b.Wait(p)
		})
		return abort
	}
	if a := probe(255); a != nil {
		t.Errorf("255 lines beside a busy sibling: unexpected abort %v", a)
	}
	if a := probe(256); a == nil || a.Cause != CauseWriteCapacity {
		t.Errorf("256 lines beside a busy sibling: abort = %v, want write capacity", a)
	}
}

func TestReadCapacityWall(t *testing.T) {
	cfg := tinyCfg()
	l3Lines := cfg.L3.Lines() // 32
	for _, n := range []int{l3Lines, l3Lines + 1} {
		h := mem.New(cfg)
		sys := NewSystem(cfg, h, nil)
		var abort *Abort
		sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
			tx := sys.Attach(p)
			abort = once(sys, tx, func() {
				for i := 0; i < n; i++ {
					tx.Load(uint64(i) * arch.LineSize)
				}
			})
		})
		if n <= l3Lines {
			if abort != nil {
				t.Errorf("n=%d: unexpected abort %v", n, abort)
			}
		} else {
			if abort == nil {
				t.Fatalf("n=%d: expected read-capacity abort", n)
			}
			if abort.Cause != CauseReadCapacity {
				t.Errorf("n=%d: cause = %v", n, abort.Cause)
			}
			// Reported as CONFLICT, like the real hardware.
			if abort.Status&StatusConflict == 0 {
				t.Error("read-capacity abort should report the conflict bit")
			}
			if abort.Status&StatusCapacity != 0 {
				t.Error("read-capacity abort should not report the capacity bit")
			}
		}
	}
}

func TestReadSetSurvivesL1Eviction(t *testing.T) {
	// Reads may overflow L1 freely: only L3 eviction kills the read set.
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	n := cfg.L1.Lines() * 3 // well beyond L1, within L3
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if a := once(sys, tx, func() {
			for i := 0; i < n; i++ {
				tx.Load(uint64(i) * arch.LineSize)
			}
		}); a != nil {
			t.Errorf("read-only txn of %d lines aborted: %v", n, a)
		}
	})
}

func TestConflictRequesterWins(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	b := testbarrier.New("TestConflictRequesterWins", 2)
	var t0Causes []Cause
	sim.Run(cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			// Open a transaction that writes line 0, then stall. The
			// barrier is only taken on the first attempt.
			first := true
			causes := atomically(sys, tx, func() {
				tx.Store(0, 1)
				if first {
					first = false
					b.Wait(p) // let thread 1 in
				}
				p.Work(200)
			})
			t0Causes = causes
		} else {
			b.Wait(p)
			// Non-transactional read of the line in t0's write set: t0 must die.
			sys.RawLoad(p, 0)
		}
	})
	if len(t0Causes) == 0 {
		t.Fatal("victim transaction was not aborted")
	}
	if t0Causes[0] != CauseConflict {
		t.Fatalf("cause = %v, want conflict", t0Causes[0])
	}
}

func TestTxVsTxConflict(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	b := testbarrier.New("TestTxVsTxConflict", 2)
	var loserCauses []Cause
	var conflictLine uint64
	sys.AbortHook = func(tid int, a Abort) {
		if a.Cause == CauseConflict {
			conflictLine = a.ConflictLine
		}
	}
	sim.Run(cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			first := true
			loserCauses = atomically(sys, tx, func() {
				tx.Load(128) // read line 2
				if first {
					first = false
					b.Wait(p)
				}
				p.Work(500) // stay open while t1 writes it
			})
		} else {
			b.Wait(p)
			atomically(sys, tx, func() {
				tx.Store(128, 5) // conflicting transactional write
			})
		}
	})
	if len(loserCauses) == 0 || loserCauses[0] != CauseConflict {
		t.Fatalf("reader should lose to the writing requester: %v", loserCauses)
	}
	if conflictLine != mem.LineAddr(128) {
		t.Fatalf("conflict line = %d, want %d", conflictLine, mem.LineAddr(128))
	}
	if h.Peek(128) != 5 {
		t.Fatalf("winner's value lost: %d", h.Peek(128))
	}
}

func TestDurationAbort(t *testing.T) {
	cfg := tinyCfg()
	cfg.TSX.TickPeriod = 50_000
	cfg.TSX.TickJitter = 0
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	var abort *Abort
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		abort = once(sys, tx, func() {
			for i := 0; i < 100; i++ {
				p.Work(1000) // 100k cycles total: crosses a tick
			}
		})
	})
	if abort == nil {
		t.Fatal("long transaction should hit a timer tick")
	}
	if abort.Cause != CauseInterrupt {
		t.Fatalf("cause = %v, want interrupt", abort.Cause)
	}
	if sys.Counters.Get("RTM_RETIRED:ABORTED_MISC5") != 1 {
		t.Error("interrupt abort should count as MISC5")
	}
}

func TestShortTxnNoDurationAbort(t *testing.T) {
	cfg := tinyCfg()
	cfg.TSX.TickPeriod = 1_000_000
	cfg.TSX.TickJitter = 0
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	aborts := 0
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for i := 0; i < 50; i++ {
			aborts += len(atomically(sys, tx, func() { p.Work(100) }))
		}
	})
	// 50 txns of ~150 cycles each: at most one tick can land in one.
	if aborts > 1 {
		t.Fatalf("short transactions aborted %d times", aborts)
	}
}

func TestPageFaultAbortThenRetrySucceeds(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	pt := vm.NewPageTable()
	pt.MarkFresh(0, 2*arch.PageSize)
	sys := NewSystem(cfg, h, pt)
	var causes []Cause
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		causes = atomically(sys, tx, func() {
			tx.Store(0, 11)
			tx.Store(arch.PageSize, 22) // second fresh page
		})
	})
	if len(causes) != 2 {
		t.Fatalf("expected 2 page-fault aborts, got %v", causes)
	}
	for _, c := range causes {
		if c != CausePageFault {
			t.Fatalf("cause = %v", c)
		}
	}
	if h.Peek(0) != 11 || h.Peek(arch.PageSize) != 22 {
		t.Fatal("retry after fault servicing failed")
	}
	if sys.Counters.Get("RTM_RETIRED:ABORTED_MISC3") != 2 {
		t.Error("page faults should count as MISC3")
	}
}

func TestPreTouchedPagesDontAbort(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	pt := vm.NewPageTable()
	pt.MarkFresh(0, arch.PageSize)
	pt.Touch(0) // the pre-touch optimization of §V-B
	sys := NewSystem(cfg, h, pt)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if a := once(sys, tx, func() { tx.Store(0, 1) }); a != nil {
			t.Errorf("pre-touched page aborted: %v", a)
		}
	})
}

func TestNestingFlattened(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if a := once(sys, tx, func() {
			tx.Store(0, 1)
			sys.Begin(tx) // nested
			tx.Store(64, 2)
			tx.Commit() // pops nest level; must not publish yet
			if !tx.Active() {
				t.Error("outer txn ended by inner commit")
			}
			tx.Store(128, 3)
		}); a != nil {
			t.Errorf("nested txn aborted: %v", a)
		}
	})
	if h.Peek(64) != 2 || h.Peek(128) != 3 {
		t.Fatal("nested writes lost")
	}
	if sys.Counters.Get("RTM_RETIRED:START") != 1 {
		t.Error("nested begin should not count as a new RTM start")
	}
}

func TestNestDepthAbort(t *testing.T) {
	cfg := tinyCfg()
	cfg.TSX.MaxNest = 2
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	var abort *Abort
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		abort = once(sys, tx, func() {
			sys.Begin(tx)
			sys.Begin(tx) // depth 3 > MaxNest 2
		})
	})
	if abort == nil || abort.Cause != CauseNestDepth {
		t.Fatalf("abort = %v, want nest-depth", abort)
	}
}

func TestAbortInNestedRollsBackEverything(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		a := once(sys, tx, func() {
			tx.Store(0, 1)
			sys.Begin(tx)
			tx.Store(64, 2)
			tx.XAbort(1)
		})
		if a == nil {
			t.Fatal("expected abort")
		}
	})
	if h.Peek(0) != 0 || h.Peek(64) != 0 {
		t.Fatal("flattened nesting must roll back outer writes too")
	}
}

func TestReadOwnWrite(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if a := once(sys, tx, func() {
			tx.Store(0, 55)
			if got := tx.Load(0); got != 55 {
				t.Errorf("read-own-write = %d", got)
			}
		}); a != nil {
			t.Errorf("abort: %v", a)
		}
	})
}

func TestSiblingHyperThreadConflict(t *testing.T) {
	// Threads 0 and 4 share core 0; conflicts between them must still be
	// detected even though no inter-core coherence traffic occurs.
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	b := testbarrier.New("TestSiblingHyperThreadConflict", 5)
	var victim []Cause
	sim.Run(cfg, h, 5, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		switch p.ID() {
		case 0:
			first := true
			victim = atomically(sys, tx, func() {
				tx.Load(0)
				if first {
					first = false
					b.Wait(p)
				}
				p.Work(300)
			})
		case 4:
			b.Wait(p)
			sys.RawStore(p, 0, 9)
		default:
			b.Wait(p)
		}
	})
	if len(victim) == 0 || victim[0] != CauseConflict {
		t.Fatalf("sibling conflict missed: %v", victim)
	}
}

func TestAtomicCounterUnderContention(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	const perThread = 200
	sim.Run(cfg, h, 4, 7, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for i := 0; i < perThread; i++ {
			atomically(sys, tx, func() {
				v := tx.Load(0)
				p.Work(uint64(p.Rng.Intn(20)))
				tx.Store(0, v+1)
			})
		}
	})
	if got := h.Peek(0); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
	c := sys.Counters
	if c.Get("RTM_RETIRED:COMMIT") != 4*perThread {
		t.Errorf("commits = %d", c.Get("RTM_RETIRED:COMMIT"))
	}
	starts := c.Get("RTM_RETIRED:START")
	aborted := c.Get("RTM_RETIRED:ABORTED")
	if starts != 4*perThread+aborted {
		t.Errorf("starts(%d) != commits(%d)+aborts(%d)", starts, 4*perThread, aborted)
	}
}

func TestBankTransferInvariant(t *testing.T) {
	// Classic atomicity property: concurrent random transfers conserve the
	// total balance.
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	const accounts = 16
	const initial = 1000
	for i := 0; i < accounts; i++ {
		h.Poke(uint64(i)*arch.LineSize, initial)
	}
	sim.Run(cfg, h, 4, 3, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for i := 0; i < 150; i++ {
			from := uint64(p.Rng.Intn(accounts)) * arch.LineSize
			to := uint64(p.Rng.Intn(accounts)) * arch.LineSize
			amt := int64(p.Rng.Intn(50))
			atomically(sys, tx, func() {
				tx.Store(from, tx.Load(from)-amt)
				tx.Store(to, tx.Load(to)+amt)
			})
		}
	})
	var total int64
	for i := 0; i < accounts; i++ {
		total += h.Peek(uint64(i) * arch.LineSize)
	}
	if total != accounts*initial {
		t.Fatalf("balance not conserved: %d != %d", total, accounts*initial)
	}
}

func TestDirectoryCleanAfterRun(t *testing.T) {
	cfg := tinyCfg()
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	sim.Run(cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for i := 0; i < 50; i++ {
			atomically(sys, tx, func() {
				tx.Store(uint64(p.Rng.Intn(8))*arch.LineSize, 1)
			})
		}
	})
	if sys.ActiveLines() != 0 {
		t.Fatalf("%d lines leaked in the directory", sys.ActiveLines())
	}
}

func TestTickBetweenJitterDeterministic(t *testing.T) {
	cfg := tinyCfg()
	cfg.TSX.TickPeriod = 1000
	cfg.TSX.TickJitter = 100
	sys := NewSystem(cfg, mem.New(cfg), nil)
	for i := 0; i < 10; i++ {
		a := sys.tickBetween(0, 0, 5000)
		b := sys.tickBetween(0, 0, 5000)
		if a != b {
			t.Fatal("tick jitter nondeterministic")
		}
	}
	if !sys.tickBetween(0, 0, 10_000) {
		t.Fatal("a 10-period span must contain a tick")
	}
	if sys.tickBetween(0, 0, 10) {
		t.Fatal("a 10-cycle span at t=0 must not contain a tick")
	}
}

// TestTickBetweenMatchesScan pins the closed-form tickBetween to the
// reference implementation that scans every tick period in the gap.
func TestTickBetweenMatchesScan(t *testing.T) {
	scan := func(core int, from, to, p, j uint64) bool {
		if p == 0 || to <= from {
			return false
		}
		for k := from / p; k <= to/p+1; k++ {
			if k == 0 {
				continue
			}
			tick := k * p
			if j > 0 {
				tick += tickHash(uint64(core), k) % j
			}
			if tick > from && tick <= to {
				return true
			}
		}
		return false
	}
	cfg := tinyCfg()
	sys := &System{cfg: cfg}
	for _, p := range []uint64{1, 7, 100, 1000, 7_500_000} {
		for _, j := range []uint64{0, 1, 3, p / 2, p - 1} {
			cfg.TSX.TickPeriod, cfg.TSX.TickJitter = p, j
			for _, core := range []int{0, 3} {
				for _, from := range []uint64{0, 1, p - 1, p, p + 1, 3*p - 1, 3 * p, 10*p + p/3} {
					for _, span := range []uint64{0, 1, p / 3, p - 1, p, p + 1, 2 * p, 5*p + 1} {
						to := from + span
						got := sys.tickBetween(core, from, to)
						want := scan(core, from, to, p, j)
						if got != want {
							t.Fatalf("tickBetween(core=%d, from=%d, to=%d) p=%d j=%d: got %v, want %v",
								core, from, to, p, j, got, want)
						}
					}
				}
			}
		}
	}
	// The whole point: a multi-hour quiescent gap must answer instantly
	// (and affirmatively) without scanning millions of periods.
	cfg.TSX.TickPeriod, cfg.TSX.TickJitter = 7_500_000, 1_000_000
	if !sys.tickBetween(0, 0, 1<<40) {
		t.Fatal("huge gap must contain a tick")
	}
}

func TestReadSetLevelL2Counterfactual(t *testing.T) {
	// With the read set bounded by L2 instead of L3, the read wall moves
	// from the L3 line count down to the L2 line count.
	cfg := tinyCfg()
	cfg.TSX.ReadSetLevel = 2
	l2Lines := cfg.L2.Lines() // 16
	for _, n := range []int{l2Lines, l2Lines + 1} {
		h := mem.New(cfg)
		sys := NewSystem(cfg, h, nil)
		var abort *Abort
		sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
			tx := sys.Attach(p)
			abort = once(sys, tx, func() {
				for i := 0; i < n; i++ {
					tx.Load(uint64(i) * arch.LineSize)
				}
			})
		})
		if n <= l2Lines && abort != nil {
			t.Fatalf("n=%d: unexpected abort %v", n, abort)
		}
		if n > l2Lines {
			if abort == nil || abort.Cause != CauseReadCapacity {
				t.Fatalf("n=%d: abort = %v, want read-capacity", n, abort)
			}
		}
	}
}

// TestRequesterWinsAcrossEngines pins the requester-wins rule on each of
// the directory's conflict paths: the classic probe; a claim in the
// core's directory slice (one shard, hyper-thread siblings, the line
// private to their core); and a deferred probe replayed at the epoch
// boundary (two shards, one thread per core, the line owned by the
// aggressor's core). The victims take their claims, then the aggressor
// conflicts: each victim must abort exactly once with a conflict on the
// line blamed on the aggressor, the aggressor must not abort, and no
// claim may outlive the run.
func TestRequesterWinsAcrossEngines(t *testing.T) {
	const addr, initial, written = 128, 7, 42
	la := mem.LineAddr(addr)
	engines := []struct {
		name      string
		shards    int
		threads   int
		victims   []int // readers in the write case; victims[0] is the writer otherwise
		aggressor int
		// rawLoader is the raw-load case's aggressor. On the slice engine
		// it sits on another core: a raw load by the writer's sibling
		// does not see a write claim in their core's slice (ROADMAP).
		rawLoader int
		warm      int  // its raw store sets the initial value, so its core owns the line
		slice     bool // victims[0]'s claim lands in its core's directory slice
	}{
		{"classic", 0, 3, []int{0, 2}, 1, 1, 1, false},
		{"slice", 1, 5, []int{0}, 4, 1, 0, true},
		{"boundary", 2, 3, []int{0, 2}, 1, 1, 1, false},
	}
	cases := []struct {
		name    string
		readers bool // the victims read the line (else victims[0] writes it)
		raw     bool // the aggressor is the engine's rawLoader
		// aggress performs the aggressor's access and returns the value
		// it read (0 for a write) and its abort, if any.
		aggress func(sys *System, tx *Txn, p *sim.Proc) (int64, *Abort)
		read    int64 // the aggressor's read value
		final   int64 // the line's value after the run
	}{
		{"read-vs-write", false, false, func(sys *System, tx *Txn, p *sim.Proc) (int64, *Abort) {
			var v int64
			a := once(sys, tx, func() { v = tx.Load(addr) })
			return v, a
		}, initial, initial},
		{"write-vs-readers", true, false, func(sys *System, tx *Txn, p *sim.Proc) (int64, *Abort) {
			return 0, once(sys, tx, func() { tx.Store(addr, written) })
		}, 0, written},
		{"raw-load-vs-writer", false, true, func(sys *System, tx *Txn, p *sim.Proc) (int64, *Abort) {
			return sys.RawLoad(p, addr), nil
		}, initial, initial},
	}
	for _, eng := range engines {
		for _, c := range cases {
			t.Run(eng.name+"/"+c.name, func(t *testing.T) {
				cfg := tinyCfg()
				cfg.Shard = arch.Sharding{Shards: eng.shards}
				h := mem.New(cfg)
				sys := NewSystem(cfg, h, nil)
				aborts := make([][]Abort, eng.threads)
				sys.AbortHook = func(tid int, a Abort) { aborts[tid] = append(aborts[tid], a) }
				victims, aggressor := eng.victims, eng.aggressor
				if !c.readers {
					victims = victims[:1]
				}
				if c.raw {
					aggressor = eng.rawLoader
				}
				warmed, claimed := testbarrier.New("warmed", eng.threads), testbarrier.New("claimed", eng.threads)
				delivered := make([]*Abort, eng.threads)
				var read int64
				var aggAbort *Abort
				var inSlice bool
				txs := make([]*Txn, eng.threads)
				attach := func(p *sim.Proc) { txs[p.ID()] = sys.Attach(p) } // before any shard worker runs
				sim.Run(cfg, h, eng.threads, 1, attach, func(p *sim.Proc) {
					id := p.ID()
					tx := txs[id]
					if id == eng.warm {
						sys.RawStore(p, addr, initial)
					}
					warmed.Wait(p)
					switch {
					case slices.Contains(victims, id):
						delivered[id] = once(sys, tx, func() {
							if c.readers {
								tx.Load(addr)
							} else {
								tx.Store(addr, 100)
							}
							if id == victims[0] {
								inSlice = sys.slices != nil && sys.slices[p.Core()].Len() != 0
							}
							claimed.Wait(p)
							p.Work(20_000) // stay open across several epochs
						})
					case id == aggressor:
						claimed.Wait(p)
						read, aggAbort = c.aggress(sys, tx, p)
					default:
						claimed.Wait(p)
					}
				})
				want := conflict(la, aggressor)
				for _, v := range victims {
					if len(aborts[v]) != 1 || aborts[v][0] != want {
						t.Errorf("victim %d: hook saw %+v, want one %+v", v, aborts[v], want)
					}
					if delivered[v] == nil || *delivered[v] != want {
						t.Errorf("victim %d: delivered %+v, want %+v", v, delivered[v], want)
					}
				}
				if aggAbort != nil || len(aborts[aggressor]) != 0 {
					t.Errorf("aggressor lost: %+v (hook %+v)", aggAbort, aborts[aggressor])
				}
				if read != c.read {
					t.Errorf("aggressor read %d, want %d", read, c.read)
				}
				if got := h.Peek(addr); got != c.final {
					t.Errorf("line = %d after the run, want %d", got, c.final)
				}
				if inSlice != eng.slice {
					t.Errorf("victim claim in a directory slice = %v, want %v", inSlice, eng.slice)
				}
				if n := sys.ActiveLines(); n != 0 {
					t.Errorf("%d lines still tracked after the run", n)
				}
			})
		}
	}
}

func TestNewSystemRejectsUntrackableThreads(t *testing.T) {
	cfg := tinyCfg()
	cfg.Cores, cfg.ThreadsPerCore = 17, 2
	defer func() {
		if recover() == nil {
			t.Fatal("NewSystem accepted 34 hardware threads")
		}
	}()
	NewSystem(cfg, mem.New(cfg), nil)
}
