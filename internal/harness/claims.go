package harness

import (
	"io"

	"rtmlab/internal/eigenbench"
	"rtmlab/internal/runner"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// claimRow is one checked claim: the verdict cell is derived from ok.
type claimRow struct {
	name     string
	ok       bool
	evidence string
}

// Claims programmatically checks the paper's headline findings against
// the simulator — a compact, self-judging reproduction summary. Each row
// is one claim from the abstract/conclusions with the measured evidence.
// The claim blocks are independent simulation bundles, so they fan out
// across the runner pool; rows are collected in block order.
func Claims(w io.Writer, o Options) {
	t := &Table{
		ID:     "claims",
		Title:  "Paper headline claims, re-checked against the simulator",
		Header: []string{"claim", "verdict", "evidence"},
	}
	o.Obs.BeginExperiment("claims")
	mkP := func(ws int) eigenbench.Params {
		p := eigenbench.Default(ws)
		tuneLoops(&p, o)
		return p
	}
	// Recorders are keyed by the claim-block index (the fan-out point),
	// so the merged trace is identical at any -j.

	blocks := []func(bi int) []claimRow{
		// 1. "RTM performs well with small to medium working sets."
		func(bi int) []claimRow {
			p := mkP(16 << 10)
			seq := eigenbench.Run(o.system(tm.Seq, bi, "ws16k/seq"), p.Sequential(), 1)
			rtm := eigenbench.Run(o.system(tm.HTM, bi, "ws16k/rtm"), p, 1)
			stm := eigenbench.Run(o.system(tm.STM, bi, "ws16k/stm"), p, 1)
			spdR := float64(seq.Cycles) / float64(rtm.Cycles)
			spdS := float64(seq.Cycles) / float64(stm.Cycles)
			return []claimRow{{"RTM beats TinySTM at small working sets", spdR > spdS,
				"16KB: rtm " + f2(spdR) + "x vs " + o.backendLabel(tm.STM) + " " + f2(spdS) + "x"}}
		},
		// 2. "When data contention is low, TinySTM performs better than HTM;
		//    as contention increases, RTM consistently performs better."
		func(bi int) []claimRow {
			p := mkP(64 << 10)
			p.R1, p.W1, p.R2, p.W2 = 9, 1, 81, 9
			low, high := p, p
			low.HotWords, high.HotWords = 100, 24
			rtmLow := eigenbench.Run(o.system(tm.HTM, bi, "lowP/rtm"), low, 1)
			stmLow := eigenbench.Run(o.system(tm.STM, bi, "lowP/stm"), low, 1)
			rtmHigh := eigenbench.Run(o.system(tm.HTM, bi, "highP/rtm"), high, 1)
			stmHigh := eigenbench.Run(o.system(tm.STM, bi, "highP/stm"), high, 1)
			lowOK := stmLow.Cycles < rtmLow.Cycles
			ratioLow := float64(rtmLow.Cycles) / float64(stmLow.Cycles)
			ratioHigh := float64(rtmHigh.Cycles) / float64(stmHigh.Cycles)
			return []claimRow{
				{"TinySTM wins at low contention", lowOK,
					"P=0.26: rtm/stm time ratio " + f2(ratioLow)},
				{"RTM gains ground as contention rises", ratioHigh < ratioLow,
					"ratio " + f2(ratioLow) + " -> " + f2(ratioHigh) + " at P=0.72"},
			}
		},
		// 3. "RTM generally suffers less overhead than TinySTM for
		//    single-threaded runs."
		func(bi int) []claimRow {
			p := mkP(16 << 10)
			p.Threads = 1
			seq := eigenbench.Run(o.system(tm.Seq, bi, "1t/seq"), p, 1)
			rtm := eigenbench.Run(o.system(tm.HTM, bi, "1t/rtm"), p, 1)
			stm := eigenbench.Run(o.system(tm.STM, bi, "1t/stm"), p, 1)
			ovR := float64(rtm.Cycles) / float64(seq.Cycles)
			ovS := float64(stm.Cycles) / float64(seq.Cycles)
			return []claimRow{{"RTM has lower 1-thread overhead than TinySTM", ovR < ovS,
				"rtm " + f2(ovR) + "x vs " + o.backendLabel(tm.STM) + " " + f2(ovS) + "x sequential"}}
		},
		// 4. "RTM is more energy-efficient when working sets fit in cache."
		func(bi int) []claimRow {
			p := mkP(16 << 10)
			seq := eigenbench.Run(o.system(tm.Seq, bi, "energy/seq"), p.Sequential(), 1)
			rtm := eigenbench.Run(o.system(tm.HTM, bi, "energy/rtm"), p, 1)
			stm := eigenbench.Run(o.system(tm.STM, bi, "energy/stm"), p, 1)
			return []claimRow{{"RTM most energy-efficient at cache-resident working sets",
				rtm.EnergyJ < seq.EnergyJ && rtm.EnergyJ < stm.EnergyJ,
				"J: rtm " + f3(rtm.EnergyJ) + " seq " + f3(seq.EnergyJ) + " stm " + f3(stm.EnergyJ)}}
		},
		// 5. Write-set bounded by L1, read-set by L3 (Fig. 1).
		func(bi int) []claimRow {
			cfg := o.Machine()
			cfg.TSX.TickPeriod = 0
			wOK := capacityAbortRate(cfg, cfg.L1.Lines(), true, 2) == 0 &&
				capacityAbortRate(cfg, cfg.L1.Lines()+1, true, 2) == 1
			rOK := capacityAbortRate(cfg, cfg.L3.Lines(), false, 2) == 0 &&
				capacityAbortRate(cfg, cfg.L3.Lines()+1, false, 2) == 1
			return []claimRow{
				{"write-set wall at L1 size (512 lines)", wOK, "binary probe at 512/513"},
				{"read-set wall at L3 size (128K lines)", rOK, "binary probe at 131072/131073"},
			}
		},
		// 6. "labyrinth does not scale in RTM" (grid copy blows the write set;
		// needs the full-size grid, whose private copy exceeds 512 L1 lines).
		func(bi int) []claimRow {
			res, err := stamp.RunOn(o.system(tm.HTM, bi, "labyrinth/rtm"),
				stamp.NewLabyrinth(stamp.Full), 4, 42)
			ok := err == nil && res.Fallbacks > 0 && res.WriteCapacity > 0
			rows := []claimRow{{"labyrinth's grid copy forces RTM to the fallback lock", ok,
				itoa(int(res.Fallbacks)) + " fallbacks, " + itoa(int(res.WriteCapacity)) + " write-capacity aborts"}}
			stm, err2 := stamp.RunOn(o.system(tm.STM, bi, "labyrinth/stm"),
				stamp.NewLabyrinth(stamp.Full), 4, 42)
			ok2 := err2 == nil && err == nil && stm.Cycles < res.Cycles
			rows = append(rows, claimRow{"labyrinth scales under TinySTM but not RTM", ok2,
				"4t cycles: rtm " + itoa(int(res.Cycles/1e6)) + "M vs " + o.backendLabel(tm.STM) + " " + itoa(int(stm.Cycles/1e6)) + "M"})
			return rows
		},
		// 7. Case-study optimizations pay off (Tables IV & V).
		func(bi int) []claimRow {
			base, err1 := stamp.RunOn(o.system(tm.HTM, bi, "intruder/base"),
				stamp.NewIntruder(stamp.Small, false), 4, 42)
			opt, err2 := stamp.RunOn(o.system(tm.HTM, bi, "intruder/opt"),
				stamp.NewIntruder(stamp.Small, true), 4, 42)
			ok := err1 == nil && err2 == nil && opt.Cycles < base.Cycles
			return []claimRow{{"intruder prepend optimization reduces execution time", ok,
				f2(100*(1-float64(opt.Cycles)/float64(base.Cycles))) + "% reduction at 4 threads"}}
		},
		func(bi int) []claimRow {
			base, err1 := stamp.RunOn(o.system(tm.HTM, bi, "vacation/base"),
				stamp.NewVacation(stamp.Small, false), 4, 42)
			optSys := o.system(tm.HTM, bi, "vacation/opt")
			optSys.Heap.PreTouch = true
			opt, err2 := stamp.RunOn(optSys, stamp.NewVacation(stamp.Small, true), 4, 42)
			ok := err1 == nil && err2 == nil && opt.Cycles < base.Cycles && opt.Misc3 < base.Misc3
			return []claimRow{{"vacation single-lookup+pre-touch kills page-fault aborts", ok,
				"misc3 " + itoa(int(base.Misc3)) + " -> " + itoa(int(opt.Misc3))}}
		},
	}
	for _, rows := range runner.Map(o.Jobs, len(blocks), func(i int) []claimRow {
		return blocks[i](i)
	}) {
		for _, r := range rows {
			verdict := "REPRODUCED"
			if !r.ok {
				verdict = "DEVIATES"
			}
			t.AddRow(r.name, verdict, r.evidence)
		}
	}
	Emit(w, o, t)
}
