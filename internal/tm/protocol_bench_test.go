package tm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/stm"
)

// protocolBenchBody is the protocol-comparison workload: mostly-disjoint
// read-write transactions over thread-private lines (the common case all
// three protocols must make fast) with one shared-counter transaction
// per block (the contended case where their conflict detection differs).
func protocolBenchBody(c *Ctx) {
	base := uint64(1)<<32 + uint64(c.P.ID())<<24
	for i := 0; i < 40; i++ {
		c.Atomic(func(tx Tx) {
			for l := uint64(0); l < 8; l++ {
				a := base + l*arch.LineSize
				tx.Store(a, tx.Load(a)+1)
			}
		})
		if i%8 == 0 {
			c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	}
}

// BenchmarkSTMProtocolThroughput measures wall-clock time to simulate
// one contended 4-thread STM region under each concurrency-control
// protocol, reporting simulated-cycle throughput as simMcycles/s. The
// protocols do different per-access metadata work (encounter-time lock
// CAS for tinystm, read-log version checks for tl2, value revalidation
// sweeps for norec), so both ns/op and the simulated cycle totals
// legitimately differ — the benchmark tracks the host cost of each
// protocol's hot path.
func BenchmarkSTMProtocolThroughput(b *testing.B) {
	for _, proto := range stm.Protocols() {
		b.Run(proto, func(b *testing.B) {
			cfg := arch.Haswell()
			cfg.STM.Protocol = proto
			var simCycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys := NewSystem(cfg, STM)
				res := sys.Run(4, 7, protocolBenchBody)
				simCycles += res.Cycles
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(simCycles)/1e6/secs, "simMcycles/s")
			}
		})
	}
}
