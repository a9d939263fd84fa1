package harness

import (
	"io"

	"rtmlab/internal/arch"
	"rtmlab/internal/ds"
	"rtmlab/internal/htm"
	"rtmlab/internal/mem"
	"rtmlab/internal/runner"
	"rtmlab/internal/sim"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// attemptOnce runs one hardware transaction attempt with no retry,
// returning the abort (nil on commit). Used by the capacity and duration
// probes, which measure raw abort rates.
func attemptOnce(sys *htm.System, tx *htm.Txn, body func()) (abort *htm.Abort) {
	defer func() {
		if r := recover(); r != nil {
			if a, is := r.(htm.Abort); is {
				abort = &a
				return
			}
			panic(r)
		}
	}()
	sys.Begin(tx)
	body()
	tx.Commit()
	return nil
}

// Fig1 regenerates the RTM read-set / write-set capacity test: abort rate
// versus the number of distinct cache lines accessed per transaction.
// Expected walls: writes at 512 lines (L1), reads at 128K lines (L3).
func Fig1(w io.Writer, o Options) {
	cfg := o.Machine()
	t := &Table{
		ID:     "fig1",
		Title:  "RTM read-set and write-set capacity test (abort rate vs lines touched)",
		Header: []string{"lines", "read-only", "write-only"},
	}
	sizes := []int{1, 64, 128, 256, 384, 448, 512, 576, 768, 1024, 4096,
		16384, 65536, 98304, 122880, 131072, 147456, 196608}
	trials := 6
	addRows(t, runner.Map(o.Jobs, len(sizes), func(i int) []string {
		n := sizes[i]
		readRate := capacityAbortRate(cfg, n, false, trials)
		writeRate := -1.0
		if n <= 4096 {
			writeRate = capacityAbortRate(cfg, n, true, trials)
		}
		wr := "-"
		if writeRate >= 0 {
			wr = f3(writeRate)
		}
		return []string{itoa(n), f3(readRate), wr}
	}))
	t.Note("paper: write wall at 512 lines (L1 size), read wall at 128K lines (L3 size)")
	t.Note("L1 = %d lines, L3 = %d lines", cfg.L1.Lines(), cfg.L3.Lines())
	Emit(w, o, t)
}

// capacityAbortRate measures the single-attempt abort rate of a
// transaction touching n distinct sequential lines.
func capacityAbortRate(cfg *arch.Config, n int, writes bool, trials int) float64 {
	h := mem.New(cfg)
	sys := htm.NewSystem(cfg, h, nil)
	aborts := 0
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for trial := 0; trial < trials; trial++ {
			a := attemptOnce(sys, tx, func() {
				for i := 0; i < n; i++ {
					addr := uint64(i) * arch.LineSize
					if writes {
						tx.Store(addr, int64(i))
					} else {
						tx.Load(addr)
					}
				}
			})
			if a != nil {
				aborts++
			}
		}
	})
	return float64(aborts) / float64(trials)
}

// Fig2 regenerates the duration test: single thread, 64-byte working set,
// zero writes; transaction duration grows via added (cache-hot) reads.
// Expected: abort rate ~ duration / tick period, ~100% beyond 10M cycles.
func Fig2(w io.Writer, o Options) {
	cfg := o.Machine()
	t := &Table{
		ID:     "fig2",
		Title:  "RTM abort rate vs transaction duration (timer interrupts)",
		Header: []string{"approx_cycles", "abort_rate", ""},
	}
	targets := []uint64{1_000, 10_000, 30_000, 100_000, 300_000,
		1_000_000, 3_000_000, 10_000_000, 20_000_000}
	addRows(t, runner.Map(o.Jobs, len(targets), func(i int) []string {
		target := targets[i]
		// Enough trials that the expected abort count is ~2 even at low
		// rates (rate ~ duration / tick period).
		trials := int(20_000_000 / target)
		if trials < 12 {
			trials = 12
		}
		if trials > 800 {
			trials = 800
		}
		reads := int(target / (cfg.Lat.L1Hit + 1))
		rate := durationAbortRate(cfg, reads, trials)
		return []string{itoa(int(target)), f3(rate), bar(rate, 1, 30)}
	}))
	t.Note("tick period = %d cycles (+ jitter); paper: effects beyond 30K, all abort >10M", cfg.TSX.TickPeriod)
	Emit(w, o, t)
}

func durationAbortRate(cfg *arch.Config, reads, trials int) float64 {
	h := mem.New(cfg)
	sys := htm.NewSystem(cfg, h, nil)
	aborts := 0
	sim.Run(cfg, h, 1, 1, nil, func(p *sim.Proc) {
		tx := sys.Attach(p)
		for trial := 0; trial < trials; trial++ {
			a := attemptOnce(sys, tx, func() {
				for i := 0; i < reads; i++ {
					tx.Load(uint64(i%8) * arch.WordSize) // 64-byte working set
					p.AddCycles(1)
				}
			})
			if a != nil {
				aborts++
			}
		}
	})
	return float64(aborts) / float64(trials)
}

// Table1 regenerates the queue-pop overhead comparison: execution time of
// draining a shared queue under no synchronization, a ticket spinlock,
// CAS, and bare RTM, for three contention levels; times are normalized to
// the lock version. Expected: single-thread RTM ~1.45x lock; multi-thread
// RTM beats CAS beats lock, with RTM's edge growing with contention.
func Table1(w io.Writer, o Options) {
	t := &Table{
		ID:     "table1",
		Title:  "Relative overheads of RTM versus locks and CAS (queue_pop)",
		Header: []string{"contention", "none", "lock", "cas", "rtm"},
	}
	elems := 60_000
	if o.Scale == stamp.Test {
		elems = 5_000
	}
	type cfgRow struct {
		name      string
		threads   int
		localWork uint64
	}
	rows := []cfgRow{
		{"none", 1, 0},
		{"low", 4, 260},
		{"high", 4, 0},
	}
	addRows(t, runner.Map(o.Jobs, len(rows), func(i int) []string {
		row := rows[i]
		lockT := queueDrain(o, tm.Lock, row.threads, elems, row.localWork)
		var noneS string
		if row.threads == 1 {
			noneS = f2(float64(queueDrain(o, tm.Seq, 1, elems, row.localWork)) / float64(lockT))
		} else {
			noneS = "N/A"
		}
		casT := queueDrainCAS(o, row.threads, elems, row.localWork)
		rtmT := queueDrain(o, tm.HTMBare, row.threads, elems, row.localWork)
		return []string{row.name, noneS, "1.00",
			f2(float64(casT) / float64(lockT)),
			f2(float64(rtmT) / float64(lockT))}
	}))
	t.Note("paper Table I: none 0.64 / cas 1.05 / rtm 1.45 (single thread); low: cas 0.64 rtm 0.69; high: cas 0.64 rtm 0.47")
	Emit(w, o, t)
}

// queueDrain measures cycles to empty a queue of n elements under a tm
// backend (Seq = unsynchronized, Lock = ticket-spinlock around the pop,
// HTMBare = plain-retry RTM).
func queueDrain(o Options, backend tm.Backend, threads, n int, localWork uint64) uint64 {
	sys := tm.NewSystem(o.Machine(), backend)
	var q ds.Queue
	sys.Run(1, 1, func(c *tm.Ctx) {
		q = ds.NewQueue(c, c, n+1)
		for i := 0; i < n; i++ {
			q.Push(c, int64(i))
		}
	})
	res := sys.Run(threads, 2, func(c *tm.Ctx) {
		for {
			var ok bool
			c.Atomic(func(t tm.Tx) {
				_, ok = q.Pop(t)
			})
			if !ok {
				return
			}
			if localWork > 0 {
				c.Work(localWork)
			}
		}
	})
	return res.Cycles
}

// queueDrainCAS uses the lock-free CAS pop.
func queueDrainCAS(o Options, threads, n int, localWork uint64) uint64 {
	sys := tm.NewSystem(o.Machine(), tm.Seq)
	var q ds.Queue
	sys.Run(1, 1, func(c *tm.Ctx) {
		q = ds.NewQueue(c, c, n+1)
		for i := 0; i < n; i++ {
			q.Push(c, int64(i))
		}
	})
	res := sys.Run(threads, 2, func(c *tm.Ctx) {
		for {
			if _, ok := q.PopCAS(c); !ok {
				return
			}
			if localWork > 0 {
				c.Work(localWork)
			}
		}
	})
	return res.Cycles
}
