package tm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/perf"
	"rtmlab/internal/testbarrier"
)

var allBackends = []Backend{Seq, Lock, STM, HTM, HTMBare, Hybrid}

var concurrentBackends = []Backend{Lock, STM, HTM, HTMBare}

func TestBackendNames(t *testing.T) {
	want := map[Backend]string{Seq: "seq", Lock: "lock", STM: "tinystm", HTM: "rtm", HTMBare: "rtm-bare", Hybrid: "hybrid"}
	if len(want) != len(allBackends) || len(policies) != len(allBackends) {
		t.Fatalf("%d names and %d policies for %d backends", len(want), len(policies), len(allBackends))
	}
	for b, n := range want {
		if b.String() != n {
			t.Errorf("%d -> %q, want %q", b, b.String(), n)
		}
	}
}

func TestAtomicCounterAllBackends(t *testing.T) {
	for _, b := range concurrentBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(arch.Haswell(), b)
			const perThread = 120
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
		})
	}
}

func TestSeqBackendSingleThread(t *testing.T) {
	sys := NewSystem(arch.Haswell(), Seq)
	sys.Run(1, 1, func(c *Ctx) {
		for i := 0; i < 100; i++ {
			c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	})
	if got := sys.H.Peek(0); got != 100 {
		t.Fatalf("counter = %d", got)
	}
}

func TestBankTransfersAllBackends(t *testing.T) {
	const accounts = 24
	const initial = 1000
	for _, b := range concurrentBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(arch.Haswell(), b)
			for i := 0; i < accounts; i++ {
				sys.H.Poke(uint64(i)*arch.LineSize, initial)
			}
			sys.Run(4, 7, func(c *Ctx) {
				for i := 0; i < 120; i++ {
					from := uint64(c.P.Rng.Intn(accounts)) * arch.LineSize
					to := uint64(c.P.Rng.Intn(accounts)) * arch.LineSize
					amt := int64(c.P.Rng.Intn(30))
					c.Atomic(func(tx Tx) {
						tx.Store(from, tx.Load(from)-amt)
						tx.Store(to, tx.Load(to)+amt)
					})
				}
			})
			var total int64
			for i := 0; i < accounts; i++ {
				total += sys.H.Peek(uint64(i) * arch.LineSize)
			}
			if total != accounts*initial {
				t.Fatalf("total = %d, want %d", total, accounts*initial)
			}
		})
	}
}

func TestHTMFallbackEngages(t *testing.T) {
	// A transaction that always overflows the write set must fall back to
	// the serial lock and still complete.
	cfg := arch.Haswell()
	cfg.L1 = arch.CacheGeom{SizeBytes: 8 * arch.LineSize, Ways: 2}
	cfg.L3 = arch.CacheGeom{SizeBytes: 64 * arch.LineSize, Ways: 4}
	sys := NewSystem(cfg, HTM)
	n := cfg.L1.Lines() * 2 // guaranteed write-capacity overflow
	sys.Run(1, 1, func(c *Ctx) {
		c.Atomic(func(tx Tx) {
			for i := 0; i < n; i++ {
				tx.Store(uint64(i)*arch.LineSize, int64(i+1))
			}
		})
	})
	for i := 0; i < n; i++ {
		if sys.H.Peek(uint64(i)*arch.LineSize) != int64(i+1) {
			t.Fatalf("word %d lost", i)
		}
	}
	if sys.Counters.Get("tm:fallback") != 1 {
		t.Fatalf("fallback count = %d, want 1", sys.Counters.Get("tm:fallback"))
	}
	if got := sys.HTM.Counters.Get(perf.RTMAborted); got != uint64(sys.MaxRetries) {
		t.Fatalf("aborts = %d, want %d (MaxRetries)", got, sys.MaxRetries)
	}
}

func TestLockAbortsCounted(t *testing.T) {
	// While one thread holds the fallback lock, other threads' running
	// transactions abort on the lock line and are classified as lock
	// aborts (Fig. 12).
	cfg := arch.Haswell()
	cfg.L1 = arch.CacheGeom{SizeBytes: 8 * arch.LineSize, Ways: 2}
	cfg.L3 = arch.CacheGeom{SizeBytes: 64 * arch.LineSize, Ways: 4}
	sys := NewSystem(cfg, HTM)
	overflow := cfg.L1.Lines() * 2
	sys.Run(4, 3, func(c *Ctx) {
		base := uint64(c.P.ID()) * 1 << 20
		for i := 0; i < 10; i++ {
			if c.P.ID() == 0 {
				// Overflowing transaction: forced through the fallback.
				c.Atomic(func(tx Tx) {
					for j := 0; j < overflow; j++ {
						tx.Store(base+uint64(j)*arch.LineSize, 1)
					}
				})
			} else {
				// Well-behaved small transactions.
				for k := 0; k < 20; k++ {
					c.Atomic(func(tx Tx) {
						tx.Store(base, tx.Load(base)+1)
					})
				}
			}
		}
	})
	if sys.Counters.Get("tm:abort.lock") == 0 {
		t.Fatal("no lock aborts recorded despite fallback serialisation")
	}
	if sys.Counters.Get("tm:fallback") == 0 {
		t.Fatal("fallback never engaged")
	}
}

func TestRestartSemantics(t *testing.T) {
	for _, b := range allBackends {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(arch.Haswell(), b)
			sys.Run(1, 1, func(c *Ctx) {
				tries := 0
				c.Atomic(func(tx Tx) {
					tries++
					tx.Store(0, int64(tries))
					if tries < 3 {
						tx.Restart()
					}
				})
				if tries != 3 {
					t.Errorf("tries = %d, want 3", tries)
				}
			})
			if sys.H.Peek(0) != 3 {
				t.Fatalf("value = %d, want 3", sys.H.Peek(0))
			}
		})
	}
}

func TestRestartRollsBackHTMAndSTM(t *testing.T) {
	for _, b := range []Backend{STM, HTM} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(arch.Haswell(), b)
			sys.H.Poke(0, 7)
			sys.Run(1, 1, func(c *Ctx) {
				first := true
				c.Atomic(func(tx Tx) {
					if first {
						first = false
						tx.Store(0, 999)
						tx.Restart()
					}
					// Second attempt must see the original value.
					if got := tx.Load(0); got != 7 {
						t.Errorf("restart leaked: %d", got)
					}
				})
			})
		})
	}
}

func TestAllocInsideAtomic(t *testing.T) {
	for _, b := range []Backend{STM, HTM} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(arch.Haswell(), b)
			var addrs []uint64
			sys.Run(2, 1, func(c *Ctx) {
				for i := 0; i < 20; i++ {
					var a uint64
					c.Atomic(func(tx Tx) {
						a = c.Alloc(4)
						tx.Store(a, int64(c.P.ID()*1000+i))
					})
					if c.P.ID() == 0 {
						addrs = append(addrs, a)
					}
				}
			})
			for i, a := range addrs {
				if sys.H.Peek(a) != int64(i) {
					t.Fatalf("alloc'd slot %d corrupted", i)
				}
			}
		})
	}
}

func TestHTMPageFaultFallsThroughPreTouch(t *testing.T) {
	// Without pre-touch, allocating inside transactions causes page-fault
	// aborts; with pre-touch, virtually none (the Table V effect).
	count := func(preTouch bool) uint64 {
		sys := NewSystem(arch.Haswell(), HTM)
		sys.Heap.PreTouch = preTouch
		sys.Run(2, 1, func(c *Ctx) {
			for i := 0; i < 30; i++ {
				c.Atomic(func(tx Tx) {
					a := c.Alloc(600) // ~ a fresh page per allocation
					tx.Store(a, 1)
				})
			}
		})
		return sys.HTM.Counters.Get("htm:abort.page-fault")
	}
	if faults := count(false); faults == 0 {
		t.Fatal("expected page-fault aborts without pre-touch")
	}
	if faults := count(true); faults != 0 {
		t.Fatalf("pre-touch left %d page-fault aborts", faults)
	}
}

func TestRetriesReported(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	sys.Run(1, 1, func(c *Ctx) {
		c.Atomic(func(tx Tx) { tx.Store(0, 1) })
		if c.Retries() != 0 {
			t.Errorf("clean commit reported %d retries", c.Retries())
		}
	})
}

func TestDeterministicAcrossRuns(t *testing.T) {
	for _, b := range concurrentBackends {
		run := func() uint64 {
			sys := NewSystem(arch.Haswell(), b)
			res := sys.Run(4, 11, func(c *Ctx) {
				for i := 0; i < 40; i++ {
					addr := uint64(c.P.Rng.Intn(16)) * arch.LineSize
					c.Atomic(func(tx Tx) {
						tx.Store(addr, tx.Load(addr)+1)
					})
				}
			})
			return res.Cycles
		}
		if a, b2 := run(), run(); a != b2 {
			t.Fatalf("%v: nondeterministic (%d vs %d)", b, a, b2)
		}
	}
}

func TestHTMOutperformsFallbackPath(t *testing.T) {
	// Sanity: small uncontended transactions should almost never fall
	// back.
	sys := NewSystem(arch.Haswell(), HTM)
	sys.Run(4, 9, func(c *Ctx) {
		base := uint64(c.P.ID()) << 20
		for i := 0; i < 100; i++ {
			c.Atomic(func(tx Tx) {
				tx.Store(base, tx.Load(base)+1)
			})
		}
	})
	if f := sys.Counters.Get("tm:fallback"); f > 2 {
		t.Fatalf("%d fallbacks for disjoint small transactions", f)
	}
}

func TestMeasureAborts(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	before := sys.Aborts()
	res := sys.Run(4, 3, func(c *Ctx) {
		for i := 0; i < 50; i++ {
			c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	})
	m := sys.Measure(res, before)
	if m.Cycles == 0 || m.Instr == 0 {
		t.Fatal("empty measure")
	}
	if m.Aborts != sys.Aborts()-before {
		t.Fatal("abort delta wrong")
	}
}

func TestCtxImplementsLocksMem(t *testing.T) {
	// The fallback path locks through the Ctx itself; exercise the RMW
	// with an active reader transaction to confirm strong atomicity.
	sys := NewSystem(arch.Haswell(), HTM)
	b := testbarrier.New("TestCtxImplementsLocksMem", 2)
	var victim bool
	sys.Run(2, 1, func(c *Ctx) {
		if c.P.ID() == 0 {
			first := true
			c.Atomic(func(tx Tx) {
				tx.Load(4096)
				if first {
					first = false
					b.Wait(c.P)
				}
				c.P.Work(400)
			})
		} else {
			b.Wait(c.P)
			c.RMW(4096, func(v int64) int64 { return v + 1 })
		}
	})
	// Check the RMW landed and the system is consistent.
	if sys.H.Peek(4096) != 1 {
		t.Fatal("RMW lost")
	}
	_ = victim
	if sys.HTM.Counters.Get("htm:abort.conflict") == 0 {
		t.Fatal("RMW did not abort the reader transaction")
	}
}

// Opacity: inside a transaction, every snapshot must be consistent — a
// reader that loads two words maintained under the invariant x == y must
// never observe x != y mid-transaction, even in attempts that later abort.
func TestOpacityInvariantPairs(t *testing.T) {
	for _, b := range []Backend{STM, HTM} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sys := NewSystem(arch.Haswell(), b)
			const xAddr, yAddr = 0, 4096 // separate lines, separate locks
			violations := 0
			sys.Run(4, 13, func(c *Ctx) {
				for i := 0; i < 120; i++ {
					if c.P.ID()%2 == 0 {
						// Writer: keep x == y.
						c.Atomic(func(tx Tx) {
							v := tx.Load(xAddr)
							tx.Store(xAddr, v+1)
							c.P.Work(uint64(c.P.Rng.Intn(10)))
							tx.Store(yAddr, v+1)
						})
					} else {
						// Reader: both loads inside one txn must agree.
						c.Atomic(func(tx Tx) {
							x := tx.Load(xAddr)
							c.P.Work(uint64(c.P.Rng.Intn(10)))
							y := tx.Load(yAddr)
							if x != y {
								violations++
							}
						})
					}
				}
			})
			if violations > 0 {
				t.Fatalf("%d opacity violations observed", violations)
			}
			if x, y := sys.H.Peek(xAddr), sys.H.Peek(yAddr); x != y {
				t.Fatalf("final state broken: x=%d y=%d", x, y)
			}
		})
	}
}

// The same invariant must hold against non-transactional readers under
// HTM (strong atomicity): a raw reader never sees a torn pair.
func TestStrongAtomicityTornReads(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	const xAddr, yAddr = 0, 64
	torn := 0
	sys.Run(4, 17, func(c *Ctx) {
		for i := 0; i < 150; i++ {
			if c.P.ID() == 0 {
				c.Atomic(func(tx Tx) {
					v := tx.Load(xAddr)
					tx.Store(xAddr, v+1)
					tx.Store(yAddr, v+1)
				})
			} else {
				x := c.Load(xAddr)
				y := c.Load(yAddr)
				// y was read after x; the writer may have committed in
				// between, so y >= x is legal but y < x is not, and the
				// gap can be at most the commits that landed in between.
				if y < x {
					torn++
				}
			}
		}
	})
	if torn > 0 {
		t.Fatalf("%d torn raw reads", torn)
	}
}
