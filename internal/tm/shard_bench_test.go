package tm

import (
	"fmt"
	"testing"

	"rtmlab/internal/arch"
)

// wideBenchCfg is a 16-core machine for shard-scaling measurements: the
// paper's 4-core Haswell offers too few simulated threads for intra-point
// parallelism to matter, so the scaling benchmark widens the machine and
// runs one thread per core.
func wideBenchCfg(shards int) *arch.Config {
	cfg := arch.Haswell()
	cfg.Cores = 16
	if shards != 0 {
		cfg.Shard = arch.Sharding{Shards: shards}
	}
	return cfg
}

// shardScalingBody is the scaling workload: dominated by thread-local
// cache traffic (the case intra-point sharding accelerates), with one
// shared-counter transaction per sweep block so the coherence-exchange
// path stays on the measured profile.
func shardScalingBody(c *Ctx) {
	// Private regions start at 1<<32, well above the synchronisation
	// words at 1<<28 (a thread's region landing on the serialisation
	// lock would corrupt the fallback protocol).
	base := uint64(1)<<32 + uint64(c.P.ID())<<24
	for i := 0; i < 120; i++ {
		for l := uint64(0); l < 16; l++ {
			a := base + l*arch.LineSize
			c.Store(a, c.Load(a)+1)
		}
		if i%16 == 0 {
			c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	}
}

// BenchmarkShardThroughput measures wall-clock time to simulate one
// 16-thread region under the classic serial engine and under the sharded
// engine at increasing worker counts, reporting simulated-cycle
// throughput as simMcycles/s. The sharded variants all simulate the
// byte-identical region (worker count never changes semantics), so their
// ns/op ratio is a pure host-parallelism speedup: shards=8 vs shards=1
// approaches the host's core count (flat on a single-core host, where the
// workers time-share one CPU).
func BenchmarkShardThroughput(b *testing.B) {
	for _, shards := range []int{0, 1, 2, 4, 8} {
		name := "classic"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			cfg := wideBenchCfg(shards)
			var simCycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys := NewSystem(cfg, HTM)
				res := sys.Run(16, 7, shardScalingBody)
				simCycles += res.Cycles
			}
			b.StopTimer()
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(simCycles)/1e6/secs, "simMcycles/s")
			}
		})
	}
}
