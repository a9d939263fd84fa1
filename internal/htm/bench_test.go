package htm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/sim"
)

// benchCfg disables timer-interrupt aborts so open-ended benchmark
// transactions survive arbitrarily many iterations.
func benchCfg() *arch.Config {
	cfg := arch.Haswell()
	cfg.TSX.TickPeriod = 0
	return cfg
}

// BenchmarkTxnLoadSameLine measures the repeat-line transactional load:
// the lastRead memo must reduce it to one compare plus the cache access.
func BenchmarkTxnLoadSameLine(b *testing.B) {
	cfg := benchCfg()
	h := mem.New(cfg)
	s := NewSystem(cfg, h, nil)
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		s.Begin(tx)
		for i := 0; i < b.N; i++ {
			tx.Load(64)
		}
		tx.Commit()
	})
}

// BenchmarkTxnLoadReadSetHit defeats the single-entry memo (64 distinct
// lines, round-robin) to pin the cost of a read-set membership probe on
// lines already owned by the transaction.
func BenchmarkTxnLoadReadSetHit(b *testing.B) {
	cfg := benchCfg()
	h := mem.New(cfg)
	s := NewSystem(cfg, h, nil)
	const lines = 64
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		s.Begin(tx)
		for k := 0; k < lines; k++ {
			tx.Load(uint64(k) * arch.LineSize)
		}
		for i := 0; i < b.N; i++ {
			tx.Load(uint64(i%lines) * arch.LineSize)
		}
		tx.Commit()
	})
}

// BenchmarkTxnStoreWriteSetHit measures repeat stores to lines already in
// the write set (committing every 4096 stores to bound the undo log).
func BenchmarkTxnStoreWriteSetHit(b *testing.B) {
	cfg := benchCfg()
	h := mem.New(cfg)
	s := NewSystem(cfg, h, nil)
	const lines = 64
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		s.Begin(tx)
		for i := 0; i < b.N; i++ {
			tx.Store(uint64(i%lines)*arch.LineSize, int64(i))
			if i%4096 == 4095 {
				tx.Commit()
				s.Begin(tx)
			}
		}
		tx.Commit()
	})
}

// BenchmarkTxnReadSetCycle measures a whole small transaction per
// iteration: 64 fresh read-set inserts with their directory updates, then
// the commit-time directory scrub and set clear.
func BenchmarkTxnReadSetCycle(b *testing.B) {
	cfg := benchCfg()
	h := mem.New(cfg)
	s := NewSystem(cfg, h, nil)
	const lines = 64
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		for i := 0; i < b.N; i++ {
			s.Begin(tx)
			for k := 0; k < lines; k++ {
				tx.Load(uint64(k) * arch.LineSize)
			}
			tx.Commit()
		}
	})
}

// BenchmarkTxnSmallCommit measures a STAMP-sized transaction: two loads
// and two stores on four distinct lines, then the commit. Releasing the
// sets must cost the four lines the transaction touched, not a walk over
// the sets' pre-sized capacity.
func BenchmarkTxnSmallCommit(b *testing.B) {
	cfg := benchCfg()
	h := mem.New(cfg)
	s := NewSystem(cfg, h, nil)
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		for i := 0; i < b.N; i++ {
			s.Begin(tx)
			tx.Load(0)
			tx.Load(arch.LineSize)
			tx.Store(2*arch.LineSize, int64(i))
			tx.Store(3*arch.LineSize, int64(i))
			tx.Commit()
		}
	})
}

// BenchmarkTxnAbortClear measures the abort path: 32 write-set inserts,
// then an explicit abort driving the undo-log restore, the speculative
// line drops and the directory scrub.
func BenchmarkTxnAbortClear(b *testing.B) {
	cfg := benchCfg()
	h := mem.New(cfg)
	s := NewSystem(cfg, h, nil)
	const lines = 32
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := s.Attach(p)
		for i := 0; i < b.N; i++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, is := r.(Abort); !is {
							panic(r)
						}
					}
				}()
				s.Begin(tx)
				for k := 0; k < lines; k++ {
					tx.Store(uint64(k)*arch.LineSize, int64(i))
				}
				tx.XAbort(1)
			}()
		}
	})
}

// BenchmarkRawLoadDirProbe measures the strong-atomicity directory probe
// under contention: thread 0 holds 64 lines in its transactional read
// set while thread 1 raw-loads them, so every raw load probes a
// populated conflict directory.
func BenchmarkRawLoadDirProbe(b *testing.B) {
	cfg := benchCfg()
	h := mem.New(cfg)
	s := NewSystem(cfg, h, nil)
	const lines = 64
	done := false
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(cfg, h, 2, 1, nil, func(p *sim.Proc) {
		if p.ID() == 0 {
			tx := s.Attach(p)
			s.Begin(tx)
			for k := 0; k < lines; k++ {
				tx.Load(uint64(k) * arch.LineSize)
			}
			for !done {
				// Big work quanta keep thread 0 mostly off the schedule so
				// the handoff cost amortizes across thread 1's probes.
				p.Work(1 << 16)
			}
			tx.Commit()
			return
		}
		for i := 0; i < b.N; i++ {
			s.RawLoad(p, uint64(i%lines)*arch.LineSize)
		}
		done = true
	})
}
