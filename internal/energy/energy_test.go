package energy

import (
	"math"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
)

func TestStaticTermScalesWithTime(t *testing.T) {
	cfg := arch.Haswell()
	oneSec := uint64(cfg.FreqGHz * 1e9)
	r := Compute(cfg, Measure{Cycles: oneSec, ThreadCycles: []uint64{oneSec}})
	if math.Abs(r.Static-cfg.Energy.PkgStaticW) > 1e-9 {
		t.Fatalf("static = %g, want %g", r.Static, cfg.Energy.PkgStaticW)
	}
	r2 := Compute(cfg, Measure{Cycles: 2 * oneSec, ThreadCycles: []uint64{2 * oneSec}})
	if math.Abs(r2.Static-2*r.Static) > 1e-9 {
		t.Fatal("static term not linear in time")
	}
}

func TestRaceToIdle(t *testing.T) {
	// The same total work done 4x faster on 4 cores must cost less static
	// energy, which is the race-to-idle effect the paper observes.
	cfg := arch.Haswell()
	work := uint64(4e9)
	seq := Compute(cfg, Measure{Cycles: work, ThreadCycles: []uint64{work}, Instr: uint64(work)})
	par := Compute(cfg, Measure{
		Cycles:       work / 4,
		ThreadCycles: []uint64{work / 4, work / 4, work / 4, work / 4},
		Instr:        uint64(work),
	})
	if par.Total() >= seq.Total() {
		t.Fatalf("perfect 4x scaling should save energy: par=%g seq=%g", par.Total(), seq.Total())
	}
}

func TestWastedWorkBurnsEnergy(t *testing.T) {
	cfg := arch.Haswell()
	base := Measure{Cycles: 1e6, ThreadCycles: []uint64{1e6}, Instr: 1e6}
	withAborts := base
	withAborts.Aborts = 1000
	withAborts.Instr = 2e6 // re-executed work
	if Compute(cfg, withAborts).Total() <= Compute(cfg, base).Total() {
		t.Fatal("aborted work should cost energy")
	}
}

func TestMemoryTrafficCostsEnergy(t *testing.T) {
	cfg := arch.Haswell()
	quiet := Measure{Cycles: 1e6, ThreadCycles: []uint64{1e6}}
	noisy := quiet
	noisy.Mem = mem.Stats{L1Accesses: 1e6, MemAccesses: 1e5, C2CTransfers: 1e4}
	if Compute(cfg, noisy).Total() <= Compute(cfg, quiet).Total() {
		t.Fatal("memory traffic should cost energy")
	}
}

func TestIdleCoresDrawIdlePower(t *testing.T) {
	cfg := arch.Haswell()
	r := Compute(cfg, Measure{Cycles: 1e9, ThreadCycles: []uint64{1e9}})
	wantIdle := 3 * cfg.Energy.CoreIdleW * cfg.Seconds(1e9)
	if math.Abs(r.CoreIdle-wantIdle) > 1e-9 {
		t.Fatalf("idle = %g, want %g (3 idle cores)", r.CoreIdle, wantIdle)
	}
}

func TestHyperThreadsShareCorePower(t *testing.T) {
	// Two threads on the same core must not double the core-busy energy.
	cfg := arch.Haswell()
	c := uint64(1e9)
	// Threads 0 and 4 share core 0 in the tid%cores mapping.
	threads := make([]uint64, 5)
	threads[0], threads[4] = c, c
	threads[1], threads[2], threads[3] = 0, 0, 0
	r := Compute(cfg, Measure{Cycles: c, ThreadCycles: threads})
	wantBusy := cfg.Energy.CoreActiveW * cfg.Seconds(c) // one busy core
	if math.Abs(r.CoreBusy-wantBusy) > 1e-9 {
		t.Fatalf("busy = %g, want %g", r.CoreBusy, wantBusy)
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	cfg := arch.Haswell()
	r := Compute(cfg, Measure{
		Cycles:       1e7,
		ThreadCycles: []uint64{1e7, 5e6},
		Instr:        1e7,
		Mem:          mem.Stats{L1Accesses: 1e6, L2Accesses: 1e5, L3Accesses: 1e4, MemAccesses: 1e3},
		Aborts:       50,
	})
	sum := r.Static + r.CoreBusy + r.CoreIdle + r.Instr + r.L1 + r.L2 + r.L3 + r.DRAM + r.Coh + r.Abort
	if math.Abs(sum-r.Total()) > 1e-12 {
		t.Fatal("Total() does not match the sum of components")
	}
}
