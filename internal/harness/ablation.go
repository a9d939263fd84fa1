package harness

import (
	"fmt"
	"io"

	"rtmlab/internal/arch"
	"rtmlab/internal/eigenbench"
	"rtmlab/internal/runner"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// The ablation experiments probe the design choices the paper's system
// fixes silently: the fallback retry budget (Algorithm 1's MAX_RETRIES),
// TinySTM's lock-array size (the false-conflict knob), the OS tick period
// (the duration wall) and the L1 geometry (the write-set wall).

// AblationRetries sweeps Algorithm 1's MAX_RETRIES on intruder.
func AblationRetries(w io.Writer, o Options) {
	t := &Table{
		ID:     "ablation-retries",
		Title:  "Fallback retry budget (Algorithm 1 MAX_RETRIES) on intruder, 4 threads",
		Header: []string{"max_retries", "Mcycles", "fallbacks", "lock_aborts", "abort_rate"},
	}
	scale := o.Scale
	if scale == stamp.Full {
		scale = stamp.Small // the sweep repeats the run six times
	}
	budgets := []int{1, 2, 4, 8, 16, 32}
	type pointOut struct {
		row  []string
		note string
	}
	outs := runner.Map(o.Jobs, len(budgets), func(i int) pointOut {
		retries := budgets[i]
		sys := tm.NewSystem(o.Machine(), tm.HTM)
		sys.MaxRetries = retries
		res, err := stamp.RunOn(sys, stamp.NewIntruder(scale, false), 4, 42)
		if err != nil {
			return pointOut{note: fmt.Sprintf("max_retries=%d failed: %v", retries, err)}
		}
		return pointOut{row: []string{itoa(retries), itoa(int(res.Cycles / 1e6)),
			itoa(int(res.Fallbacks)), itoa(int(res.Lock)), f3(res.AbortRate)}}
	})
	for _, p := range outs {
		if p.note != "" {
			t.Note("%s", p.note)
			continue
		}
		t.AddRow(p.row...)
	}
	t.Note("too few retries serialise through the lock; too many waste work on hopeless")
	t.Note("transactions — the paper's choice of 8 sits on the flat part of the curve")
	Emit(w, o, t)
}

// AblationLockArray sweeps TinySTM's lock-array size against a working
// set larger than its coverage, reproducing the false-conflict mechanism
// behind Fig. 3's 16 MB TinySTM spike.
func AblationLockArray(w io.Writer, o Options) {
	t := &Table{
		ID:     "ablation-lockarray",
		Title:  "TinySTM lock-array size vs false conflicts (4 threads, 2MB/thread WS)",
		Header: []string{"log2_entries", "coverageMB", "abort_rate", "speedup"},
	}
	p := eigenbench.Default(2 << 20)
	tuneLoops(&p, o)
	seqSys := tm.NewSystem(o.Machine(), tm.Seq)
	seq := eigenbench.Run(seqSys, p.Sequential(), 1)
	log2s := []int{14, 16, 18, 20, 21}
	addRows(t, runner.Map(o.Jobs, len(log2s), func(i int) []string {
		log2 := log2s[i]
		cfg := o.Machine()
		cfg.STM.LockArrayLog2 = log2
		r := eigenbench.Run(tm.NewSystem(cfg, tm.STM), p, 1)
		return []string{itoa(log2), itoa((1 << uint(log2)) * 8 >> 20), f3(r.AbortRate),
			f2(float64(seq.Cycles) / float64(r.Cycles))}
	}))
	t.Note("a two-sided tradeoff: small arrays alias disjoint addresses onto the same lock and")
	t.Note("abort transactions that never conflict, but large arrays add megabytes of metadata")
	t.Note("footprint that competes with the data for cache — TinySTM's own tuning guide notes both")
	Emit(w, o, t)
}

// AblationTick sweeps the timer-interrupt period, moving Fig. 2's
// duration wall.
func AblationTick(w io.Writer, o Options) {
	t := &Table{
		ID:     "ablation-tick",
		Title:  "Timer tick period vs the transaction-duration wall",
		Header: []string{"tick_Mcycles", "abort@100K", "abort@1M", "abort@10M"},
	}
	periods := []uint64{1_000_000, 3_000_000, 7_500_000, 15_000_000}
	addRows(t, runner.Map(o.Jobs, len(periods), func(i int) []string {
		period := periods[i]
		cfg := o.Machine()
		cfg.TSX.TickPeriod = period
		row := []string{f2(float64(period) / 1e6)}
		for _, dur := range []uint64{100_000, 1_000_000, 10_000_000} {
			trials := int(10_000_000 / dur * 4)
			if trials < 8 {
				trials = 8
			}
			reads := int(dur / (cfg.Lat.L1Hit + 1))
			row = append(row, f3(durationAbortRate(cfg, reads, trials)))
		}
		return row
	}))
	t.Note("the wall sits at the tick period: a 1kHz kernel (3.4M cycles) would abort")
	t.Note("all transactions ~3x shorter than the paper's observed 10M-cycle limit")
	Emit(w, o, t)
}

// AblationReadSet probes the counterfactual the paper's L3 finding
// implies: if the hardware tracked read sets only to the private L2 (as
// some HTM designs do), the read wall would sit at 4K lines instead of
// 128K — transactions like genome's and vacation's would abort far more.
func AblationReadSet(w io.Writer, o Options) {
	t := &Table{
		ID:     "ablation-readset",
		Title:  "Read-set tracking level vs the read-capacity wall",
		Header: []string{"tracking", "largest_commit", "first_abort"},
	}
	levels := []int{3, 2}
	addRows(t, runner.Map(o.Jobs, len(levels), func(i int) []string {
		level := levels[i]
		cfg := o.Machine()
		cfg.TSX.ReadSetLevel = level
		cfg.TSX.TickPeriod = 0
		bound := cfg.L3.Lines()
		name := "L3 (Haswell)"
		if level == 2 {
			bound = cfg.L2.Lines()
			name = "L2 (counterfactual)"
		}
		okAt := capacityAbortRate(cfg, bound, false, 2)
		failAt := capacityAbortRate(cfg, bound+1, false, 2)
		commit, abort := "?", "?"
		if okAt == 0 {
			commit = itoa(bound)
		}
		if failAt == 1 {
			abort = itoa(bound + 1)
		}
		return []string{name, commit, abort}
	}))
	t.Note("Haswell's choice of the 8MB inclusive L3 buys a 32x larger read set than an")
	t.Note("L2-bound design — the reason Fig. 3's RTM tolerates multi-megabyte working sets")
	Emit(w, o, t)
}

// AblationMemBW compares unlimited DRAM bandwidth (the calibrated
// default) against a finite-bandwidth channel on the Fig. 3 dip region,
// where four threads stream misses concurrently.
func AblationMemBW(w io.Writer, o Options) {
	t := &Table{
		ID:     "ablation-membw",
		Title:  "DRAM bandwidth model vs the Fig. 3 dip (4MB/thread working sets)",
		Header: []string{"gap_cycles", "approx_GB/s", "rtm_speedup", o.backendLabel(tm.STM) + "_speedup"},
	}
	gaps := []uint64{0, 8, 16, 32, 64}
	addRows(t, runner.Map(o.Jobs, len(gaps), func(i int) []string {
		gap := gaps[i]
		cfg := o.Machine()
		cfg.Lat.MemBandwidthGap = gap
		p := eigenbench.Default(4 << 20)
		tuneLoops(&p, o)
		seq := eigenbench.Run(tm.NewSystem(cfg, tm.Seq), p.Sequential(), 1)
		rtm := eigenbench.Run(tm.NewSystem(cfg, tm.HTM), p, 1)
		stm := eigenbench.Run(tm.NewSystem(cfg, tm.STM), p, 1)
		gbs := "inf"
		if gap > 0 {
			gbs = f2(64 * cfg.FreqGHz / float64(gap))
		}
		return []string{itoa(int(gap)), gbs,
			f2(float64(seq.Cycles) / float64(rtm.Cycles)),
			f2(float64(seq.Cycles) / float64(stm.Cycles))}
	}))
	t.Note("four threads' concurrent miss streams queue on the channel while the sequential")
	t.Note("baseline has it to itself; at realistic DDR3 bandwidth (gap ~12-16) the effect is a")
	t.Note("few percent, growing sharply once demand exceeds channel capacity (gap >= 32)")
	Emit(w, o, t)
}

// AblationPrefetch toggles the optional next-line prefetcher on a pure
// streaming scan (where it halves the demand misses) and on genome's
// pointer-chasing hash walks (where its pollution costs a little) —
// the classic two faces of a hardware prefetcher.
func AblationPrefetch(w io.Writer, o Options) {
	t := &Table{
		ID:     "ablation-prefetch",
		Title:  "Next-line prefetcher: off (calibrated default) vs on",
		Header: []string{"config", "stream_Kcyc", "stream_misses", "genome_Kcyc", "prefetches"},
	}
	const streamLines = 16384 // 1 MB sequential scan
	modes := []bool{false, true}
	type pointOut struct {
		row  []string
		note string
	}
	outs := runner.Map(o.Jobs, len(modes), func(i int) pointOut {
		on := modes[i]
		cfg := o.Machine()
		cfg.Lat.PrefetchNextLine = on
		sys := tm.NewSystem(cfg, tm.Seq)
		scan := sys.Run(1, 1, func(c *tm.Ctx) {
			for i := 0; i < streamLines; i++ {
				c.Load(uint64(i) * 64)
			}
		})
		res, err := stamp.RunOn(tm.NewSystem(cfg, tm.Seq), stamp.NewGenome(o.Scale), 1, 42)
		if err != nil {
			return pointOut{note: fmt.Sprintf("genome failed: %v", err)}
		}
		name := "off"
		if on {
			name = "on"
		}
		return pointOut{row: []string{name, itoa(int(scan.Cycles / 1e3)),
			itoa(int(scan.MemStats.MemAccesses)),
			itoa(int(res.Cycles / 1e3)), itoa(int(res.Mem.Prefetches))}}
	})
	for _, p := range outs {
		if p.note != "" {
			t.Note("%s", p.note)
			continue
		}
		t.AddRow(p.row...)
	}
	t.Note("the streamer halves demand misses on the scan but pollutes the pointer-chasing")
	t.Note("hash walks of genome; it is off in the calibrated configuration because every")
	t.Note("latency constant was tuned without it (paper hardware has it enabled in silicon)")
	Emit(w, o, t)
}

// AblationL1 sweeps the L1 geometry, moving Fig. 1's write-set wall.
func AblationL1(w io.Writer, o Options) {
	t := &Table{
		ID:     "ablation-l1",
		Title:  "L1 data-cache size vs the RTM write-set wall",
		Header: []string{"l1_KB", "ways", "largest_commit", "first_abort"},
	}
	geoms := []arch.CacheGeom{
		{SizeBytes: 16 << 10, Ways: 8},
		{SizeBytes: 32 << 10, Ways: 8},
		{SizeBytes: 32 << 10, Ways: 4},
		{SizeBytes: 64 << 10, Ways: 8},
	}
	addRows(t, runner.Map(o.Jobs, len(geoms), func(i int) []string {
		geom := geoms[i]
		cfg := o.Machine()
		cfg.L1 = geom
		cfg.TSX.TickPeriod = 0
		lines := geom.Lines()
		okAt := capacityAbortRate(cfg, lines, true, 2)
		failAt := capacityAbortRate(cfg, lines+1, true, 2)
		commit, abort := "?", "?"
		if okAt == 0 {
			commit = itoa(lines)
		}
		if failAt == 1 {
			abort = itoa(lines + 1)
		}
		return []string{itoa(geom.SizeBytes >> 10), itoa(geom.Ways), commit, abort}
	}))
	t.Note("the wall tracks the L1 line count exactly (sequential lines fill sets evenly);")
	t.Note("random write sets hit the wall earlier via set-associativity conflicts")
	Emit(w, o, t)
}
