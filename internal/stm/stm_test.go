package stm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/sim"
	"rtmlab/internal/testbarrier"
	"rtmlab/internal/vm"
)

func newSys() (*arch.Config, *mem.Hierarchy, *System) {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	return cfg, h, NewSystem(cfg, h, nil)
}

// atomically retries body until commit; returns the abort reasons seen.
func atomically(t *Txn, body func()) []Reason {
	var reasons []Reason
	for {
		done := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if a, is := r.(Abort); is {
						reasons = append(reasons, a.Reason)
						ok = false
						return
					}
					panic(r)
				}
			}()
			t.Begin()
			body()
			t.Commit()
			return true
		}()
		if done {
			return reasons
		}
		if len(reasons) > 10000 {
			panic("stm test: cannot commit")
		}
	}
}

func TestCommitPublishesWrites(t *testing.T) {
	_, h, sys := newSys()
	sim.Run(sys.cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		atomically(tx, func() {
			tx.Store(0, 42)
			tx.Store(128, 43)
		})
	})
	if h.Peek(0) != 42 || h.Peek(128) != 43 {
		t.Fatalf("values = %d %d", h.Peek(0), h.Peek(128))
	}
	if sys.Counters.Get("stm:commit") != 1 {
		t.Error("commit not counted")
	}
}

func TestWriteBackIsInvisibleBeforeCommit(t *testing.T) {
	_, h, sys := newSys()
	sim.Run(sys.cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		tx.Begin()
		tx.Store(0, 99)
		if h.Peek(0) != 0 {
			t.Error("write-back leaked before commit")
		}
		if tx.Load(0) != 99 {
			t.Error("read-own-write failed")
		}
		tx.Commit()
	})
	if h.Peek(0) != 99 {
		t.Fatal("commit lost the write")
	}
}

func TestReadLockedAborts(t *testing.T) {
	_, h, sys := newSys()
	b := testbarrier.New("TestReadLockedAborts", 2)
	var reasons []Reason
	sim.Run(sys.cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			// Hold the lock on line 0's word across the barrier.
			tx.Begin()
			tx.Store(0, 1)
			b.Wait(p)
			p.Work(2000)
			tx.Commit()
		} else {
			b.Wait(p)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if a, is := r.(Abort); is {
							reasons = append(reasons, a.Reason)
							return
						}
						panic(r)
					}
				}()
				tx.Begin()
				tx.Load(0)
				tx.Commit()
			}()
		}
	})
	if len(reasons) != 1 || reasons[0] != ReasonLocked {
		t.Fatalf("reasons = %v, want [locked]", reasons)
	}
	if h.Peek(0) != 1 {
		t.Fatal("writer's commit lost")
	}
}

func TestAbortRestoresLocks(t *testing.T) {
	_, h, sys := newSys()
	sim.Run(sys.cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		func() {
			defer func() { recover() }()
			tx.Begin()
			tx.Store(64, 5)
			tx.AbortVoluntarily()
		}()
		// Lock must be free again: a new txn can write the same word.
		atomically(tx, func() { tx.Store(64, 6) })
	})
	if h.Peek(64) != 6 {
		t.Fatalf("value = %d", h.Peek(64))
	}
	if h.Peek(0) != 0 {
		t.Fatal("aborted write leaked")
	}
}

func TestSnapshotExtension(t *testing.T) {
	// A reader that sees a version newer than its snapshot must extend and
	// keep going when its reads are still valid.
	_, h, sys := newSys()
	b := testbarrier.New("TestSnapshotExtension", 2)
	sim.Run(sys.cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			tx.Begin()
			_ = tx.Load(0) // snapshot at version 0
			b.Wait(p)
			p.Work(3000) // wait for thread 1's commit
			// Line 128 now has a newer version; extension must succeed
			// because line 0 is untouched.
			_ = tx.Load(128)
			tx.Commit()
			if sys.Counters.Get("stm:extend") == 0 {
				t.Error("expected a snapshot extension")
			}
		} else {
			b.Wait(p)
			atomically(tx, func() { tx.Store(128, 7) })
		}
	})
}

func TestValidationFailureAborts(t *testing.T) {
	// Reader reads X; writer commits X; reader then reads a newer-versioned
	// word and cannot extend -> validation abort.
	_, h, sys := newSys()
	b := testbarrier.New("TestValidationFailureAborts", 2)
	var sawValidation bool
	sim.Run(sys.cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			first := true
			reasons := atomically(tx, func() {
				_ = tx.Load(0)
				if first {
					first = false
					b.Wait(p)
					p.Work(3000)
				}
				_ = tx.Load(128)
			})
			for _, r := range reasons {
				if r == ReasonValidation {
					sawValidation = true
				}
			}
		} else {
			b.Wait(p)
			atomically(tx, func() {
				tx.Store(0, 1)   // invalidates reader's snapshot of 0
				tx.Store(128, 2) // bumps 128's version past reader's rv
			})
		}
	})
	if !sawValidation {
		t.Fatal("expected a validation abort")
	}
}

func TestAtomicCounter(t *testing.T) {
	_, h, sys := newSys()
	const perThread = 150
	sim.Run(sys.cfg, h, 4, 3, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for i := 0; i < perThread; i++ {
			atomically(tx, func() {
				tx.Store(0, tx.Load(0)+1)
			})
		}
	})
	if got := h.Peek(0); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

func TestBankTransferInvariant(t *testing.T) {
	_, h, sys := newSys()
	const accounts = 32
	const initial = 500
	for i := 0; i < accounts; i++ {
		h.Poke(uint64(i)*arch.WordSize*2, initial)
	}
	sim.Run(sys.cfg, h, 4, 9, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for i := 0; i < 100; i++ {
			from := uint64(p.Rng.Intn(accounts)) * arch.WordSize * 2
			to := uint64(p.Rng.Intn(accounts)) * arch.WordSize * 2
			amt := int64(p.Rng.Intn(20))
			atomically(tx, func() {
				tx.Store(from, tx.Load(from)-amt)
				tx.Store(to, tx.Load(to)+amt)
			})
		}
	})
	var total int64
	for i := 0; i < accounts; i++ {
		total += h.Peek(uint64(i) * arch.WordSize * 2)
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d", total, accounts*initial)
	}
}

func TestFalseConflictViaLockCollision(t *testing.T) {
	// Two addresses that hash to the same lock entry conflict even though
	// they are distinct words — TinySTM's false-conflict mechanism.
	cfg := arch.Haswell()
	cfg.STM.LockArrayLog2 = 4 // 16 locks: collisions guaranteed
	h := mem.New(cfg)
	sys := NewSystem(cfg, h, nil)
	a1 := uint64(0)
	a2 := uint64(16 * arch.WordSize) // (a2>>3) & 15 == 0 too
	if sys.lockOf(a1) != sys.lockOf(a2) {
		t.Fatal("test addresses do not collide")
	}
	b := testbarrier.New("TestFalseConflictViaLockCollision", 2)
	var reasons []Reason
	sim.Run(cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			tx.Begin()
			tx.Store(a1, 1)
			b.Wait(p)
			p.Work(2000)
			tx.Commit()
		} else {
			b.Wait(p)
			func() {
				defer func() {
					if r := recover(); r != nil {
						if ab, is := r.(Abort); is {
							reasons = append(reasons, ab.Reason)
							return
						}
						panic(r)
					}
				}()
				tx.Begin()
				tx.Load(a2) // distinct word, same lock
				tx.Commit()
			}()
		}
	})
	if len(reasons) != 1 || reasons[0] != ReasonLocked {
		t.Fatalf("expected a false conflict, got %v", reasons)
	}
}

func TestOwnLockCollisionReadsMemory(t *testing.T) {
	cfg := arch.Haswell()
	cfg.STM.LockArrayLog2 = 4
	h := mem.New(cfg)
	h.Poke(16*arch.WordSize, 77)
	sys := NewSystem(cfg, h, nil)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		atomically(tx, func() {
			tx.Store(0, 1) // acquires the shared lock
			if got := tx.Load(16 * arch.WordSize); got != 77 {
				t.Errorf("colliding read = %d, want committed 77", got)
			}
		})
	})
}

func TestPageFaultServicedNotAborted(t *testing.T) {
	// STM transactions service page faults without aborting — a structural
	// advantage over RTM the paper highlights.
	cfg := arch.Haswell()
	h := mem.New(cfg)
	pt := vm.NewPageTable()
	pt.MarkFresh(0, arch.PageSize)
	sys := NewSystem(cfg, h, pt)
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		reasons := atomically(tx, func() { tx.Store(0, 5) })
		if len(reasons) != 0 {
			t.Errorf("page fault aborted an STM txn: %v", reasons)
		}
	})
	if pt.Faults != 1 {
		t.Fatalf("faults = %d, want 1", pt.Faults)
	}
	if h.Peek(0) != 5 {
		t.Fatal("value lost")
	}
}

func TestDeterministicTiming(t *testing.T) {
	runOnce := func() uint64 {
		cfg := arch.Haswell()
		h := mem.New(cfg)
		sys := NewSystem(cfg, h, nil)
		res := sim.Run(cfg, h, 4, 11, nil, func(p *sim.Proc) {
			tx := sys.Attach(p)
			for i := 0; i < 60; i++ {
				addr := uint64(p.Rng.Intn(64)) * arch.WordSize
				atomically(tx, func() {
					v := tx.Load(addr)
					tx.Store(addr, v+1)
					tx.Store(addr+8*arch.WordSize, v)
				})
			}
		})
		return res.Cycles
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("nondeterministic STM timing: %d vs %d", a, b)
	}
}

func TestLockWordEncoding(t *testing.T) {
	if !isLocked(lockedWord(3)) {
		t.Error("locked word not locked")
	}
	if lockOwner(lockedWord(5)) != 5 {
		t.Error("owner roundtrip failed")
	}
	if isLocked(versionWord(9)) {
		t.Error("version word reads as locked")
	}
	if wordVersion(versionWord(12345)) != 12345 {
		t.Error("version roundtrip failed")
	}
}

func TestReadOnlyCommitCheap(t *testing.T) {
	_, h, sys := newSys()
	var clockBumps uint64
	sim.Run(sys.cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		atomically(tx, func() {
			tx.Load(0)
			tx.Load(64)
		})
		clockBumps = uint64(h.Peek(sys.clockAddr)) >> 1
	})
	if clockBumps != 0 {
		t.Fatal("read-only commit bumped the global clock")
	}
}
