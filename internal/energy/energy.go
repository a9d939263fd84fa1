// Package energy implements the activity-based package-energy model that
// stands in for the RAPL interface used in the paper. Package energy is the
// sum of a time-based static term, per-core active/idle terms and
// per-event dynamic terms (instructions, cache and DRAM accesses,
// coherence traffic, transaction rollbacks).
//
// The coefficients (arch.Energy) are calibrated for trend fidelity: the
// model reproduces the paper's qualitative energy findings — race-to-idle
// favouring fast parallel runs, wasted aborted work burning energy without
// progress, and cache/bus activity decoupling energy from performance for
// large-footprint workloads.
package energy

import (
	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
)

// Measure captures everything the model needs about one execution region.
type Measure struct {
	Cycles       uint64   // region wall time in cycles (max over threads)
	ThreadCycles []uint64 // per-thread busy cycles; thread i runs on core i % cfg.Cores
	Instr        uint64   // total instructions, including aborted work
	Mem          mem.Stats
	Aborts       uint64 // transaction rollbacks (HTM + STM)
}

// Report is the energy breakdown for a region, in joules.
type Report struct {
	Static   float64 // package static over the region duration
	CoreBusy float64 // per-core active power integrated over busy time
	CoreIdle float64 // per-core idle power over (region - busy) time
	Instr    float64
	L1       float64
	L2       float64
	L3       float64
	DRAM     float64
	Coh      float64
	Abort    float64
}

// Total returns the total package energy in joules.
func (r Report) Total() float64 {
	return r.Static + r.CoreBusy + r.CoreIdle + r.Instr + r.L1 + r.L2 + r.L3 +
		r.DRAM + r.Coh + r.Abort
}

// Sample converts the report into a flight-recorder energy sample for the
// given interval label and duration.
func (r Report) Sample(label string, cycles uint64) obs.EnergySample {
	return obs.EnergySample{
		Label:    label,
		Cycles:   cycles,
		Static:   r.Static,
		CoreBusy: r.CoreBusy,
		CoreIdle: r.CoreIdle,
		Instr:    r.Instr,
		L1:       r.L1,
		L2:       r.L2,
		L3:       r.L3,
		DRAM:     r.DRAM,
		Coh:      r.Coh,
		Abort:    r.Abort,
		Total:    r.Total(),
	}
}

// Compute evaluates the model for one region under the given machine.
func Compute(cfg *arch.Config, m Measure) Report {
	e := cfg.Energy
	durS := cfg.Seconds(m.Cycles)

	// A core is busy while any of its hardware threads runs; with the
	// min-clock engine, a thread's busy time is its final clock, and
	// sibling hyper-threads overlap, so core busy time is the max of its
	// threads' clocks.
	coreBusy := make([]uint64, cfg.Cores)
	for tid, c := range m.ThreadCycles {
		core := tid % cfg.Cores
		if c > coreBusy[core] {
			coreBusy[core] = c
		}
	}
	var busyJ, idleJ float64
	for _, c := range coreBusy {
		busyS := cfg.Seconds(c)
		if busyS > durS {
			busyS = durS
		}
		busyJ += e.CoreActiveW * busyS
		idleJ += e.CoreIdleW * (durS - busyS)
	}
	const nJ = 1e-9
	s := m.Mem
	return Report{
		Static:   e.PkgStaticW * durS,
		CoreBusy: busyJ,
		CoreIdle: idleJ,
		Instr:    float64(m.Instr) * e.InstrNJ * nJ,
		L1:       float64(s.L1Accesses) * e.L1NJ * nJ,
		L2:       float64(s.L2Accesses) * e.L2NJ * nJ,
		L3:       float64(s.L3Accesses) * e.L3NJ * nJ,
		DRAM:     float64(s.MemAccesses) * e.MemNJ * nJ,
		Coh:      float64(s.C2CTransfers+s.Invalidations+s.Writebacks) * e.CohMsgNJ * nJ,
		Abort:    float64(m.Aborts) * e.AbortNJ * nJ,
	}
}
