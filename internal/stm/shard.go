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
//   - Counters need no special path: perf.Set keeps one map per
//     hardware thread, written only by the thread's own shard worker
//     mid-phase or at a serial boundary. Recorder traffic goes through
//     sim.Proc.RecordEvent and RecordCounter, which defer it as the
//     phase requires.

package stm
