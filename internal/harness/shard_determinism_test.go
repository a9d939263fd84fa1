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
			base, err := runGenome(backend, 1, ab.edit)
			if err != nil {
				t.Fatalf("%s %v shards=1: %v", ab.name, backend, err)
			}
			for _, shards := range []int{2, 4, 8} {
				got, err := runGenome(backend, shards, ab.edit)
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

// TestAblationRetriesHonoursShards checks that -shards reaches the retry
// sweep, which builds its machines itself: on the sharded engine its
// table differs from the classic engine's and is byte-identical at any
// shard count.
func TestAblationRetriesHonoursShards(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the retry sweep at test scale three times")
	}
	run := func(shards int) string {
		var buf bytes.Buffer
		AblationRetries(&buf, Options{Scale: stamp.Test, Seeds: 1, Shards: shards})
		return buf.String()
	}
	classic, s1, s2 := run(0), run(1), run(2)
	if s1 == classic {
		t.Errorf("ablation-retries at shards=1 matches the classic engine; the option never reached the runs:\n%s", s1)
	}
	if s2 != s1 {
		t.Errorf("ablation-retries differs between shards=1 and shards=2:\n--- shards=1 ---\n%s--- shards=2 ---\n%s", s1, s2)
	}
}

// parkAblations are the ablation settings that move the sharded
// engine off its common path, as edits of the machine description: the
// next-line prefetcher parks every L1 miss, the finite DRAM channel parks
// every full miss, and the L2-bounded read set turns the per-core
// directory slices off, so every conflict probe is deferred to the epoch
// boundary. The default configuration ("") is listed first.
var parkAblations = []struct {
	name string
	edit func(*arch.Config)
}{
	{"", func(*arch.Config) {}},
	{"prefetch", func(c *arch.Config) { c.Lat.PrefetchNextLine = true }},
	{"membw", func(c *arch.Config) { c.Lat.MemBandwidthGap = 16 }},
	{"read-set-l2", func(c *arch.Config) { c.TSX.ReadSetLevel = 2 }},
}

// runGenome runs STAMP genome at test scale with an ablation applied, on
// the sharded engine with that many workers (0 keeps the classic engine).
func runGenome(backend tm.Backend, shards int, ablation func(*arch.Config)) (stamp.Result, error) {
	cfg := Options{Shards: shards}.Machine()
	ablation(cfg)
	return stamp.RunOn(tm.NewSystem(cfg, backend), stamp.NewGenome(stamp.Test), 4, 42)
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
			classic, err := runGenome(backend, 0, ab.edit)
			if err != nil {
				t.Fatalf("%s %v classic: %v", ab.name, backend, err)
			}
			s2, err := runGenome(backend, 2, ab.edit)
			if err != nil {
				t.Fatalf("%s %v shards=2: %v", ab.name, backend, err)
			}
			s4, err := runGenome(backend, 4, ab.edit)
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
	run := func(shards int, mod func(*tm.System)) stamp.Result {
		sys := tm.NewSystem(Options{Shards: shards}.Machine(), tm.HTM)
		mod(sys)
		r, err := stamp.RunOn(sys, stamp.NewIntruder(stamp.Test, false), 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base := run(1, func(*tm.System) {})
	for _, v := range []struct {
		name   string
		shards int
		mod    func(*tm.System)
	}{
		{"recorder", 1, func(s *tm.System) { s.SetRecorder(obs.NewRecorder("x", 1024)) }},
		// Shard-count invariance makes this comparable to the shards=1
		// base; multiple workers also exercise concurrent site interning
		// under the race detector in CI.
		{"recorder-4-workers", 4, func(s *tm.System) { s.SetRecorder(obs.NewRecorder("x", 1024)) }},
		{"tm-layer-only", 1, func(s *tm.System) { s.Obs = obs.NewRecorder("x", 1024) }},
		{"machine-layer-only", 1, func(s *tm.System) { s.H.Rec = obs.NewRecorder("x", 1024) }},
	} {
		if got := run(v.shards, v.mod); !reflect.DeepEqual(base, got) {
			t.Errorf("%s: attaching a recorder changed the sharded simulation:\nwithout: %+v\nwith:    %+v", v.name, base, got)
		}
	}
}
