package stm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/sim"
	"rtmlab/internal/testbarrier"
)

// newProtoSys builds a system running the named protocol.
func newProtoSys(proto string) (*arch.Config, *mem.Hierarchy, *System) {
	cfg := arch.Haswell()
	cfg.STM.Protocol = proto
	h := mem.New(cfg)
	return cfg, h, NewSystem(cfg, h, nil)
}

// TestProtocolNames checks the protocol names against arch.Config.Validate,
// the one list of accepted names: every listed protocol and the default
// ("") pass, an unknown name fails.
func TestProtocolNames(t *testing.T) {
	valid := func(name string) error {
		cfg := arch.Haswell()
		cfg.STM.Protocol = name
		return cfg.Validate()
	}
	want := map[string]Protocol{TinySTMName: tinySTM{}, TL2Name: tl2{}, NOrecName: norec{}}
	for _, name := range Protocols() {
		if err := valid(name); err != nil {
			t.Errorf("listed protocol %q not valid: %v", name, err)
		}
		if got := protocolFor(name); got != want[name] {
			t.Errorf("protocolFor(%q) = %T", name, got)
		}
	}
	if err := valid(""); err != nil {
		t.Errorf("empty protocol (default) rejected: %v", err)
	}
	if valid("bogus") == nil {
		t.Error("bogus protocol accepted")
	}
	if protocolFor("") != (tinySTM{}) {
		t.Error("default protocol is not tinystm")
	}
}

// TestProtocolSharedSemantics runs the protocol-independent contract —
// commit publishes, speculation is invisible, read-own-write works,
// concurrent counters and bank transfers are atomic, and read-only
// commits never touch the global clock — under every protocol.
func TestProtocolSharedSemantics(t *testing.T) {
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			t.Run("commit-publishes", func(t *testing.T) {
				_, h, sys := newProtoSys(proto)
				sim.Run(sys.cfg, h, 1, 1, nil, func(p *sim.Proc) {
					tx := sys.Attach(p)
					tx.Begin()
					tx.Store(0, 42)
					if h.Peek(0) != 0 {
						t.Error("speculative write leaked before commit")
					}
					if tx.Load(0) != 42 {
						t.Error("read-own-write failed")
					}
					tx.Store(128, 43)
					tx.Commit()
				})
				if h.Peek(0) != 42 || h.Peek(128) != 43 {
					t.Fatalf("values = %d %d", h.Peek(0), h.Peek(128))
				}
				if sys.Counters.Get("stm:commit") != 1 {
					t.Error("commit not counted")
				}
			})
			t.Run("atomic-counter", func(t *testing.T) {
				_, h, sys := newProtoSys(proto)
				const perThread = 120
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
			})
			t.Run("bank-invariant", func(t *testing.T) {
				_, h, sys := newProtoSys(proto)
				const accounts = 32
				const initial = 500
				for i := 0; i < accounts; i++ {
					h.Poke(uint64(i)*arch.WordSize*2, initial)
				}
				sim.Run(sys.cfg, h, 4, 9, nil, func(p *sim.Proc) {
					tx := sys.Attach(p)
					for i := 0; i < 80; i++ {
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
			})
			t.Run("readonly-commit-free", func(t *testing.T) {
				_, h, sys := newProtoSys(proto)
				sim.Run(sys.cfg, h, 1, 1, nil, func(p *sim.Proc) {
					tx := sys.Attach(p)
					atomically(tx, func() {
						tx.Load(0)
						tx.Load(64)
					})
				})
				// All three protocols leave the clock word (version clock
				// or sequence lock) untouched on a read-only commit.
				if v := h.Peek(sys.clockAddr); v != 0 {
					t.Fatalf("read-only commit moved the clock word to %d", v)
				}
			})
		})
	}
}

// TestProtocolDeterministicTiming pins byte-identical cycle counts for a
// contended workload under each protocol (the semantic-knob contract:
// deterministic per setting, free to differ across settings).
func TestProtocolDeterministicTiming(t *testing.T) {
	runOnce := func(proto string) uint64 {
		cfg, h, sys := newProtoSys(proto)
		res := sim.Run(cfg, h, 4, 11, nil, func(p *sim.Proc) {
			tx := sys.Attach(p)
			for i := 0; i < 50; i++ {
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
	for _, proto := range Protocols() {
		t.Run(proto, func(t *testing.T) {
			if a, b := runOnce(proto), runOnce(proto); a != b {
				t.Fatalf("nondeterministic %s timing: %d vs %d", proto, a, b)
			}
		})
	}
}

// TestTL2ReadIgnoresUncommittedWriter pins TL2's defining property:
// stores stay buffered until commit, so a concurrent reader of a word
// inside another transaction's write set sees the old committed value
// instead of aborting. (The same schedule under TinySTM is
// TestReadLockedAborts — an encounter-time lock conflict.)
func TestTL2ReadIgnoresUncommittedWriter(t *testing.T) {
	_, h, sys := newProtoSys(TL2Name)
	b := testbarrier.New("TestTL2ReadIgnoresUncommittedWriter", 2)
	var reasons []Reason
	var loaded int64 = -1
	sim.Run(sys.cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			// The word is in the write set across the barrier — but TL2
			// takes no lock until commit.
			tx.Begin()
			tx.Store(0, 1)
			b.Wait(p)
			p.Work(2000)
			tx.Commit()
		} else {
			b.Wait(p)
			reasons = atomically(tx, func() {
				loaded = tx.Load(0)
			})
		}
	})
	if len(reasons) != 0 {
		t.Fatalf("reader aborted under commit-time locking: %v", reasons)
	}
	if loaded != 0 {
		t.Fatalf("reader saw %d, want pre-commit value 0", loaded)
	}
	if h.Peek(0) != 1 {
		t.Fatal("writer's commit lost")
	}
}

// TestTL2NoExtension pins the other defining property: TL2 never extends
// its snapshot. A read of a word versioned past the snapshot aborts with
// a validation failure where TinySTM would extend and continue (compare
// TestSnapshotExtension).
func TestTL2NoExtension(t *testing.T) {
	_, h, sys := newProtoSys(TL2Name)
	b := testbarrier.New("TestTL2NoExtension", 2)
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
					p.Work(3000) // wait out thread 1's commit
				}
				// Word 128 is now versioned past rv; line 0 is untouched,
				// so TinySTM would extend — TL2 must abort instead.
				_ = tx.Load(128)
			})
			for _, r := range reasons {
				if r == ReasonValidation {
					sawValidation = true
				}
			}
		} else {
			b.Wait(p)
			atomically(tx, func() { tx.Store(128, 7) })
		}
	})
	if !sawValidation {
		t.Fatal("expected a validation abort (TL2 must not extend)")
	}
	if sys.Counters.Get("stm:extend") != 0 {
		t.Fatalf("TL2 extended %d times", sys.Counters.Get("stm:extend"))
	}
}

// TestNOrecSilentWriteSurvives pins value-based validation: a concurrent
// commit that rewrites a word with the value the reader already saw
// bumps the sequence lock but passes revalidation, so the reader
// re-snapshots and commits instead of aborting. A lock- or
// version-based protocol cannot make this distinction.
func TestNOrecSilentWriteSurvives(t *testing.T) {
	_, h, sys := newProtoSys(NOrecName)
	b := testbarrier.New("TestNOrecSilentWriteSurvives", 2)
	sim.Run(sys.cfg, h, 2, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		if p.ID() == 0 {
			first := true
			reasons := atomically(tx, func() {
				_ = tx.Load(0) // reads 0
				if first {
					first = false
					b.Wait(p)
					p.Work(3000)
				}
				_ = tx.Load(64) // seqlock moved: forces revalidation
			})
			if len(reasons) != 0 {
				t.Errorf("silent write aborted the reader: %v", reasons)
			}
		} else {
			b.Wait(p)
			// Commit a store of the value already there: the sequence
			// lock advances but no value changes.
			atomically(tx, func() { tx.Store(0, 0) })
		}
	})
	if sys.Counters.Get("stm:extend") == 0 {
		t.Error("expected the reader to re-snapshot after revalidation")
	}
}

// TestNOrecValueChangeAborts is the counterpart: when the concurrent
// commit changes a value the reader depends on, revalidation fails.
func TestNOrecValueChangeAborts(t *testing.T) {
	_, h, sys := newProtoSys(NOrecName)
	b := testbarrier.New("TestNOrecValueChangeAborts", 2)
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
				_ = tx.Load(64)
			})
			for _, r := range reasons {
				if r == ReasonValidation {
					sawValidation = true
				}
			}
		} else {
			b.Wait(p)
			atomically(tx, func() { tx.Store(0, 5) })
		}
	})
	if !sawValidation {
		t.Fatal("expected a value-validation abort")
	}
	if h.Peek(0) != 5 {
		t.Fatal("writer's commit lost")
	}
}

// TestLockArrayTraffic pins the acceptance criterion behind NOrec's
// design: the contended bank workload materialises backing pages in the
// lock-array range under TinySTM and TL2 (both write lock words there),
// and exactly zero under NOrec, whose only metadata word is the
// sequence lock.
func TestLockArrayTraffic(t *testing.T) {
	run := func(proto string) (*mem.Hierarchy, *System) {
		_, h, sys := newProtoSys(proto)
		const accounts = 32
		sim.Run(sys.cfg, h, 4, 9, nil, func(p *sim.Proc) {
			tx := sys.Attach(p)
			for i := 0; i < 60; i++ {
				from := uint64(p.Rng.Intn(accounts)) * arch.WordSize * 2
				to := uint64(p.Rng.Intn(accounts)) * arch.WordSize * 2
				atomically(tx, func() {
					v := tx.Load(from)
					tx.Store(from, v-1)
					tx.Store(to, tx.Load(to)+1)
				})
			}
		})
		return h, sys
	}
	lockRange := func(s *System) (lo, hi uint64) {
		return s.lockBase, s.lockBase + (s.lockMask+1)*arch.WordSize
	}
	for _, proto := range []string{TinySTMName, TL2Name} {
		h, sys := run(proto)
		lo, hi := lockRange(sys)
		if pages := h.Mem().PagesIn(lo, hi); pages == 0 {
			t.Errorf("%s: expected lock-array traffic, saw none", proto)
		}
	}
	h, sys := run(NOrecName)
	lo, hi := lockRange(sys)
	if pages := h.Mem().PagesIn(lo, hi); pages != 0 {
		t.Errorf("norec touched %d lock-array pages, want 0", pages)
	}
	// The sequence lock itself must have been written (writing commits
	// bump it), so the metadata footprint is exactly the clock page.
	if h.Peek(sys.clockAddr) == 0 {
		t.Error("norec sequence lock never advanced")
	}
}
