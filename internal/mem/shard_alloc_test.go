package mem

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
)

// nopSink is the cheapest possible ShardSink: the test pins the
// allocation behaviour of the classifier paths themselves, not of the
// engine's deferral buffers (those are covered by the tm-level
// shard alloc test).
type nopSink struct{}

func (nopSink) DeferMemEvent(core int, kind obs.Kind, lineAddr uint64) {}
func (nopSink) DeferMemDelta(op uint8, lineAddr uint64)                {}

// TestShardLocalAccessZeroAlloc pins the //rtm:hot contract on the
// ownership-classifier fast paths: LocalLoad/LocalStore (every class —
// L1 hit, L2 hit with L1 fill, frozen L3 hit, clean full miss),
// the boundary replay of the deferred ownership deltas, and the
// epoch-scoped table reset must not allocate at steady state. The
// epoch-scoped linesets grow only until they cover the per-epoch
// working set, so one warm-up cycle reaches steady state.
func TestShardLocalAccessZeroAlloc(t *testing.T) {
	h := New(arch.Haswell())
	h.InitShard()
	var stats Stats
	sink := nopSink{}
	const lines = 64
	cycle := func() {
		for i := 0; i < lines; i++ {
			addr := uint64(i) * arch.LineSize
			h.LocalLoad(0, addr, &stats, sink)
			h.LocalStore(0, addr, &stats, sink)
		}
		for i := 0; i < lines; i++ {
			la := LineAddr(uint64(i) * arch.LineSize)
			h.ApplyShardDelta(0, MDLoadShare, la)
			h.ApplyShardDelta(0, MDStoreClaim, la)
			h.ApplyShardDelta(0, MDVictimWB, la)
		}
		h.ShardEpochReset()
	}
	cycle() // warm: fill private caches, size the epoch tables
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("classifier paths allocate %v allocs/run at steady state", n)
	}
	if stats.L1Accesses == 0 || stats.L3Accesses == 0 {
		t.Fatalf("classifier served nothing (stats %+v) — the zero-alloc run proved nothing", stats)
	}
}

// TestDirPredicatesZeroAlloc pins the directory predicates the sharded
// conflict-directory slices consult on every speculative access.
func TestDirPredicatesZeroAlloc(t *testing.T) {
	h := New(arch.Haswell())
	const lines = 64
	for i := 0; i < lines; i++ {
		h.Load(0, uint64(i)*arch.LineSize)
	}
	cycle := func() {
		for i := 0; i < lines; i++ {
			la := LineAddr(uint64(i) * arch.LineSize)
			h.DirOwner(la)
			h.DirPrivate(0, la)
			h.DirExclusive(0, la)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("directory predicates allocate %v allocs/run", n)
	}
}
