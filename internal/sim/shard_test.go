package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"rtmlab/internal/arch"
	"rtmlab/internal/lineset"
	"rtmlab/internal/mem"
)

func shardedCfg(shards int) *arch.Config {
	cfg := arch.Haswell()
	cfg.Shard = arch.Sharding{Shards: shards}
	return cfg
}

// hasPointers reports whether a value of type t holds a pointer the GC
// has to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	// Pointers, strings, slices, maps, chans, funcs and interfaces; a
	// uintptr is rejected too, as a likely smuggled pointer.
	return true
}

// TestShardDefCompact pins the deferred-op record as a small, pointer-free
// value: the logs are copied and scanned at every boundary.
func TestShardDefCompact(t *testing.T) {
	if n := unsafe.Sizeof(ShardDef{}); n > 40 {
		t.Errorf("ShardDef is %d bytes, want <= 40", n)
	}
	typ := reflect.TypeOf(ShardDef{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); hasPointers(f.Type) {
			t.Errorf("ShardDef.%s (%s) carries a pointer", f.Name, f.Type)
		}
	}
}

// TestMergeOpsCarriedTails runs many boundaries over logs that keep
// growing, so some merges start on a log that still holds defs from
// before the previous boundary's end, and checks every merge against the
// sort oracle. Counter records check that moving a tail down keeps each
// side payload attached to its record.
func TestMergeOpsCarriedTails(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var carried int
	for iter := 0; iter < 100; iter++ {
		procs := make([]*Proc, 1+r.Intn(4))
		for tid := range procs {
			procs[tid] = &Proc{id: tid, sh: &procShard{wbuf: lineset.NewTable[int64](64)}}
		}
		var end uint64
		for round := 0; round < 20; round++ {
			for _, p := range procs {
				ps := p.sh
				if len(ps.defs) > 0 {
					carried++
				}
				for k, n := 0, r.Intn(400); ps.status == shRun && k < n; k++ {
					p.clock += uint64(r.Intn(3))
					if r.Intn(3) == 0 {
						p.pushPayload(DefCounter, 0, defPayload{name: strconv.FormatUint(ps.seq, 10)})
					} else {
						p.pushDef(ShardDef{Kind: DefStore, Addr: ps.seq})
					}
				}
				if ps.status == shRun && r.Intn(4) == 0 {
					ps.status = shOpWait
					ps.opCycle = p.clock + uint64(r.Intn(3))
					ps.opSeq = ps.seq
					ps.seq++
				}
			}
			end += uint64(r.Intn(400))
			want := sortOracle(procs, end)
			next := make([]int, len(procs))
			var got []boundaryRef
			heads := make([]mergeHead, len(procs))
			n := mergeOps(procs, heads, end, func(p *Proc, d *ShardDef) {
				ps := p.sh
				if d == nil {
					got = append(got, boundaryRef{cycle: ps.opCycle, seq: ps.opSeq, tid: int32(p.id), def: -1})
					ps.status = shRun
					return
				}
				id := d.Addr
				if d.Kind == DefCounter {
					id, _ = strconv.ParseUint(ps.side[d.Addr].name, 10, 64)
				}
				if id != d.seq {
					t.Fatalf("iter %d round %d: def seq %d carries payload of seq %d", iter, round, d.seq, id)
				}
				got = append(got, boundaryRef{cycle: d.cycle, seq: d.seq, tid: int32(p.id), def: int32(next[p.id])})
				next[p.id]++
			})
			if !slices.Equal(got, want) {
				t.Fatalf("iter %d round %d, end %d: merge visited\n%v\nsort oracle\n%v", iter, round, end, got, want)
			}
			if n != uint64(len(want)) {
				t.Fatalf("iter %d round %d: mergeOps returned %d, visited %d", iter, round, n, len(want))
			}
			for i, p := range procs {
				p.sh.consume(heads[i].lim)
			}
		}
	}
	if carried == 0 {
		t.Fatal("no merge started on a log carried over from the previous boundary")
	}
}

// TestShardWakesOnlyRunnableWorkers pins the coordinator's wake rule:
// a phase wakes a worker only when one of its threads can run, and the
// coordinator runs the lowest such shard itself.
func TestShardWakesOnlyRunnableWorkers(t *testing.T) {
	// longOn runs thread tid through many epochs of pure computation, so
	// it parks only at epoch ends; every other thread returns at once.
	longOn := func(tid int) func(*Proc) {
		return func(p *Proc) {
			if p.ID() != tid {
				return
			}
			for i := 0; i < 64; i++ {
				p.Work(1000)
			}
			if p.ShardEpoch() < 10 {
				panic("thread ran too few epochs for the wake counts to mean anything")
			}
		}
	}
	for _, tc := range []struct {
		name            string
		shards, threads int
		body            func(*Proc)
		want            uint64
	}{
		{"one thread, Shards 2", 2, 1, longOn(0), 0},
		{"4 threads, Shards 1", 1, 4, longOn(0), 0},
		// Phase 1: the coordinator runs thread 0 and wakes workers 1-3,
		// whose threads return and park their finish. Phase 2: thread 0
		// is past the epoch end, so the coordinator runs shard 1 and
		// wakes 2 and 3 to complete the finishes. Thread 0 then runs
		// alone on the coordinator.
		{"4 threads, Shards 4", 4, 4, longOn(0), 5},
		// Shard 0 holds threads 0 and 1, shard 1 threads 2 and 3. Both
		// shards run in phases 1 and 2 (body return, finish); then the
		// coordinator runs shard 1's thread 3 alone.
		{"4 threads, Shards 2, long thread on shard 1", 2, 4, longOn(3), 2},
	} {
		var e *Engine
		cfg := shardedCfg(tc.shards)
		Run(cfg, mem.New(cfg), tc.threads, 1, func(p *Proc) { e = p.Engine() }, tc.body)
		if e.wakes != tc.want {
			t.Errorf("%s: %d worker wakes, want %d", tc.name, e.wakes, tc.want)
		}
	}
}

// TestShardBodyPanicReachesRunCaller checks that a body panic on either
// shard surfaces from Run, as it does on the classic engine, and that
// when both shards panic in one phase the lowest shard's panic wins.
func TestShardBodyPanicReachesRunCaller(t *testing.T) {
	type boom struct{ tid int }
	for _, tc := range []struct {
		name   string
		panics []int
		want   boom
	}{
		{"shard0", []int{0}, boom{0}}, // thread 0 runs on the coordinator
		{"shard1", []int{3}, boom{3}}, // thread 3 runs on worker 1
		{"both", []int{3, 0}, boom{0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardedCfg(2)
			defer func() {
				if v := recover(); v != tc.want {
					t.Fatalf("Run panicked with %v, want %v", v, tc.want)
				}
			}()
			Run(cfg, mem.New(cfg), 4, 1, nil, func(p *Proc) {
				for i := 0; i < 32; i++ {
					p.Work(1000)
					if i == 20 && slices.Contains(tc.panics, p.ID()) {
						panic(boom{p.ID()})
					}
				}
			})
			t.Fatal("Run returned")
		})
	}
}
