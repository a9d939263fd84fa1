package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// TestShardMatrixDeterminism asserts the sharded engine's core guarantee
// at the harness level: a full experiment (Table IV, which runs STAMP
// setup plus multi-threaded regions under several backends) emits
// byte-identical tables and CSVs for every combination of shard count
// and runner fan-out. Shards >= 1 all use the epoch-synchronized engine,
// whose semantics depend only on the epoch length — never on how many
// engine shards or host workers carry the threads — and -j only changes
// which worker runs which point. The park-path ablations get the same
// shard-count check on a STAMP kernel, since Table IV never runs them.
func TestShardMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table4 at test scale once per matrix cell")
	}
	run := func(shards, jobs int) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		o := Options{Scale: stamp.Test, Seeds: 1, OutDir: dir, Jobs: jobs, Shards: shards}
		var buf bytes.Buffer
		Table4(&buf, o)
		csv, err := os.ReadFile(filepath.Join(dir, "table4.csv"))
		if err != nil {
			t.Fatalf("shards=%d jobs=%d: %v", shards, jobs, err)
		}
		return buf.String(), csv
	}
	baseOut, baseCSV := run(1, 1)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, jobs := range []int{1, 8} {
			if shards == 1 && jobs == 1 {
				continue
			}
			out, csv := run(shards, jobs)
			if out != baseOut {
				t.Errorf("table4 output differs at shards=%d jobs=%d:\n--- base ---\n%s--- got ---\n%s",
					shards, jobs, baseOut, out)
			}
			if !bytes.Equal(csv, baseCSV) {
				t.Errorf("table4 CSV differs at shards=%d jobs=%d", shards, jobs)
			}
		}
	}
	for _, ab := range parkAblations[1:] { // the default is Table IV's
		for _, backend := range []tm.Backend{tm.HTM, tm.STM} {
			base, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, shardMod(1, ab.mod))
			if err != nil {
				t.Fatalf("%s %v shards=1: %v", ab.name, backend, err)
			}
			for _, shards := range []int{2, 4, 8} {
				got, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, shardMod(shards, ab.mod))
				if err != nil {
					t.Fatalf("%s %v shards=%d: %v", ab.name, backend, shards, err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Errorf("%s %v: results differ between shards=1 and shards=%d:\n%+v\nvs\n%+v",
						ab.name, backend, shards, base, got)
				}
			}
		}
	}
}

// parkAblations are the existing ablation settings that force the
// sharded engine's park path, applied through a stamp config hook: the
// next-line prefetcher parks every L1 miss, and the finite DRAM channel
// parks every full miss. The default configuration ("") is listed first.
var parkAblations = []struct {
	name string
	mod  func(*tm.System)
}{
	{"", func(*tm.System) {}},
	{"prefetch", func(s *tm.System) { s.Arch.Lat.PrefetchNextLine = true }},
	{"membw", func(s *tm.System) { s.Arch.Lat.MemBandwidthGap = 16 }},
}

// shardMod runs a STAMP kernel on the sharded engine with an ablation
// applied; shards == 0 keeps the classic engine.
func shardMod(shards int, ablation func(*tm.System)) func(*tm.System) {
	return func(sys *tm.System) {
		sys.Arch.Shard = arch.Sharding{Shards: shards}
		ablation(sys)
	}
}

// TestShardStampDifferential runs a STAMP kernel sharded and unsharded
// and checks that both validate and produce the same transactional
// totals. The classic serial engine and the epoch-synchronized engine
// schedule threads differently (so cycles and abort counts legitimately
// differ), but the application executes the same input-determined set of
// atomic blocks either way, so committed-transaction totals must match —
// a lost update or phantom commit in the shard exchange would break the
// equality or the validation. Each park-path ablation is checked against
// the classic engine under the same ablation.
func TestShardStampDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs genome at test scale under several engines")
	}
	for _, ab := range parkAblations {
		for _, backend := range []tm.Backend{tm.HTM, tm.STM} {
			classic, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, shardMod(0, ab.mod))
			if err != nil {
				t.Fatalf("%s %v classic: %v", ab.name, backend, err)
			}
			s2, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, shardMod(2, ab.mod))
			if err != nil {
				t.Fatalf("%s %v shards=2: %v", ab.name, backend, err)
			}
			s4, err := stamp.Run(stamp.NewGenome(stamp.Test), backend, 4, 42, shardMod(4, ab.mod))
			if err != nil {
				t.Fatalf("%s %v shards=4: %v", ab.name, backend, err)
			}
			// Shard-count invariance is exact: every field, cycles included.
			if !reflect.DeepEqual(s2, s4) {
				t.Errorf("%s %v: results differ between shards=2 and shards=4:\n%+v\nvs\n%+v",
					ab.name, backend, s2, s4)
			}
			// Classic vs sharded: same committed work, independently timed.
			// Commits counts hardware commits, so fallback-lock completions
			// (whose frequency is schedule-dependent) are added back in: the
			// sum is the input-determined number of completed atomic blocks.
			classicDone := classic.Commits + classic.Fallbacks
			shardedDone := s2.Commits + s2.Fallbacks
			if classicDone != shardedDone {
				t.Errorf("%s %v: completed atomic blocks differ: classic %d (%d fb) vs sharded %d (%d fb)",
					ab.name, backend, classicDone, classic.Fallbacks, shardedDone, s2.Fallbacks)
			}
		}
	}
}

// TestShardRecorderInvariance asserts that attaching a flight recorder
// never perturbs the sharded simulation: observation must be free of
// simulated-time side effects. The recorder's site interning used to go
// through an exclusive boundary op in shard mode, which parked the
// interning thread across an epoch boundary — so traced runs saw
// different conflict schedules than untraced ones. Interning is now a
// host-mutex operation outside simulated time; this pins the fix for
// the tm-layer recorder, the machine-layer recorder, and both together.
func TestShardRecorderInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs intruder at test scale four times")
	}
	run := func(mod func(*tm.System)) stamp.Result {
		r, err := stamp.Run(stamp.NewIntruder(stamp.Test, false), tm.HTM, 4, 1, func(sys *tm.System) {
			sys.Arch.Shard = arch.Sharding{Shards: 1}
			if mod != nil {
				mod(sys)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(nil)
	for _, v := range []struct {
		name string
		mod  func(*tm.System)
	}{
		{"recorder", func(s *tm.System) { s.SetRecorder(obs.NewRecorder("x", 1024)) }},
		// Shard-count invariance makes this comparable to the shards=1
		// base; multiple workers also exercise concurrent site interning
		// under the race detector in CI.
		{"recorder-4-workers", func(s *tm.System) {
			s.Arch.Shard = arch.Sharding{Shards: 4}
			s.SetRecorder(obs.NewRecorder("x", 1024))
		}},
		{"tm-layer-only", func(s *tm.System) { s.Obs = obs.NewRecorder("x", 1024) }},
		{"machine-layer-only", func(s *tm.System) { s.H.Rec = obs.NewRecorder("x", 1024) }},
	} {
		if got := run(v.mod); !reflect.DeepEqual(base, got) {
			t.Errorf("%s: attaching a recorder changed the sharded simulation:\nwithout: %+v\nwith:    %+v", v.name, base, got)
		}
	}
}
