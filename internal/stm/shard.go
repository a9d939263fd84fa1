// Shard-mode STM: how the protocols run under the epoch-synchronized
// sharded engine (internal/sim, shard.go).
//
// STM metadata lives in simulated memory, so most of each protocol
// already works against the frozen epoch view: reads sample metadata
// words and data from the last boundary's state, which is exactly the
// epoch-consistency the sharded engine defines. Three pieces need care:
//
//   - Every sequence that relies on Peek+Store atomicity runs as an
//     exclusive boundary operation: tinystm's encounter-time lock CAS
//     and its commit, tl2's whole commit (lock acquisition through
//     release), and norec's whole commit (so the odd sequence-lock
//     state is never frozen into an epoch view). The closures are
//     pre-bound per protocol (Protocol.shardInit) and execute the
//     unmodified serial sequences at the thread's park cycle, so the
//     cycle costs match the classic engine exactly (the differential
//     tests depend on this).
//   - Abort releases held locks with plain stores; those are buffered
//     and land at the boundary in cycle order, before any retry
//     attempt's acquisitions (whose issue cycles are later).
//   - Counters from the parallel phase go to per-thread staging sets
//     (perf.Set.Stage); boundary-context increments hit the shared set
//     directly. Recorder traffic goes through sim.Proc.RecordEvent and
//     RecordCounter, which defer it as the phase requires.

package stm

import "rtmlab/internal/perf"

// cnt returns the counter set for t's current context: per-thread
// staging during the parallel phase, the shared set everywhere else.
//
//rtm:hot
func (t *Txn) cnt() *perf.Set {
	return t.sys.Counters.For(t.proc.ID(), t.proc.ShardActive())
}
