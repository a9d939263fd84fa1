package analysis

// shardfreeze: code that runs mid-epoch inside the sharded engine —
// functions annotated //rtm:midepoch — must not mutate frozen shared
// state. Mid-epoch, the backing store, the L3 directory, and peer
// private caches are frozen; the only legal mutation channels are the
// core's own private state and the ownership-delta API (mem.ShardSink,
// replayed at the boundary by Hierarchy.ApplyShardDelta). The pass
// uses the interprocedural effect summaries, so a frozen-state write
// buried in a helper is reported at the annotated root with its call
// chain.
//
// Receiver/parameter writes are deliberately legal: a mid-epoch
// function mutating its own core's private cache slice through its
// receiver is the design. What is banned is the boundary-only API
// surface (EffBoundary: classic Hierarchy entry points, Memory
// read/write memoization, the L3's LRU-effectful lookup/insert, the
// single-threaded flight recorder), package-level writes,
// I/O, host concurrency, and calls the engine cannot resolve.

// midepochDirective marks a function as running mid-epoch under the
// sharded engine.
const midepochDirective = "//rtm:midepoch"

// shardBannedEffects are the effects a mid-epoch function may not
// reach.
const shardBannedEffects = EffBoundary | EffWriteGlobal | EffIO | EffChan | EffGo | EffUnknown

// shardFreezeKinds names the finding kinds that are not "host-effect".
var shardFreezeKinds = map[Effect]string{
	EffBoundary:    "boundary-call",
	EffWriteGlobal: "frozen-write",
	EffUnknown:     "unresolved-call",
}

// runShardFreeze checks every //rtm:midepoch function in the unit.
func runShardFreeze(u *Unit) []Diagnostic {
	const pass = "shardfreeze"
	var diags []Diagnostic
	for _, fn := range funcDecls(u) {
		if !hasDirective(fn.decl.Doc, midepochDirective) {
			continue
		}
		sum := u.SummaryForDecl(fn.decl)
		if sum == nil {
			continue
		}
		diags = append(diags, u.effectDiags(pass, sum, shardBannedEffects, fn.decl.Pos(), shardFreezeKinds,
			"mid-epoch function "+fn.decl.Name.Name+" %s while shared state is frozen")...)
	}
	return diags
}
