package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// boundaryRef and cmpBoundaryRef are the sort the boundary replay order
// is defined by: collect every op issued before the epoch end and sort
// by (cycle, tid, seq). mergeOps must visit ops in exactly this order.
type boundaryRef struct {
	cycle uint64
	seq   uint64
	tid   int32
	def   int32 // index into the proc's def list, or -1 for the parked op
}

func cmpBoundaryRef(a, b boundaryRef) int {
	switch {
	case a.cycle != b.cycle:
		if a.cycle < b.cycle {
			return -1
		}
		return 1
	case a.tid != b.tid:
		return int(a.tid) - int(b.tid)
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

func sortOracle(procs []*Proc, end uint64) []boundaryRef {
	var ord []boundaryRef
	for _, p := range procs {
		ps := p.sh
		for i := range ps.defs {
			if ps.defs[i].cycle >= end {
				break
			}
			ord = append(ord, boundaryRef{cycle: ps.defs[i].cycle, seq: ps.defs[i].seq, tid: int32(p.id), def: int32(i)})
		}
		if ps.status == shOpWait && ps.opCycle < end {
			ord = append(ord, boundaryRef{cycle: ps.opCycle, seq: ps.opSeq, tid: int32(p.id), def: -1})
		}
	}
	slices.SortFunc(ord, cmpBoundaryRef)
	return ord
}

// randomLogs builds procs carrying only shard logs: per-thread
// (cycle, seq)-sorted defs whose cycles advance by 0-2, so equal cycles
// recur within a thread and across threads, and a parked op after the
// last def on about half the threads.
func randomLogs(r *rand.Rand) []*Proc {
	procs := make([]*Proc, 1+r.Intn(6))
	for tid := range procs {
		ps := &procShard{}
		clock := uint64(r.Intn(4))
		for k, n := 0, r.Intn(12); k < n; k++ {
			clock += uint64(r.Intn(3))
			ps.defs = append(ps.defs, ShardDef{cycle: clock, seq: ps.seq, Addr: uint64(k)})
			ps.seq++
		}
		if r.Intn(2) == 0 {
			ps.status = shOpWait
			ps.opCycle = clock + uint64(r.Intn(3))
			ps.opSeq = ps.seq
			ps.seq++
		}
		procs[tid] = &Proc{id: tid, sh: ps}
	}
	return procs
}

// TestMergeOpsMatchesSortOracle checks the boundary merge against the
// sort it replaced, with the epoch end cut mid-log and at ^0 (the
// final flush).
func TestMergeOpsMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		procs := randomLogs(r)
		end := uint64(r.Intn(30))
		if r.Intn(8) == 0 {
			end = ^uint64(0)
		}
		want := sortOracle(procs, end)
		var got []boundaryRef
		heads := make([]mergeHead, len(procs))
		n := mergeOps(procs, heads, end, func(p *Proc, d *ShardDef) {
			ref := boundaryRef{tid: int32(p.id), def: -1, cycle: p.sh.opCycle, seq: p.sh.opSeq}
			if d != nil {
				ref.def, ref.cycle, ref.seq = int32(d.Addr), d.cycle, d.seq
			}
			got = append(got, ref)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("iter %d, end %d: merge visited\n%v\nsort oracle\n%v", iter, end, got, want)
		}
		if n != uint64(len(want)) {
			t.Fatalf("iter %d: mergeOps returned %d, visited %d", iter, n, len(want))
		}
		for i, p := range procs {
			lim := 0
			for _, ref := range want {
				if ref.tid == int32(p.id) && ref.def >= 0 {
					lim++
				}
			}
			if heads[i].lim != lim {
				t.Fatalf("iter %d: proc %d consumed %d defs, oracle %d", iter, i, heads[i].lim, lim)
			}
		}
	}
}
