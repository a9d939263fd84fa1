package tm

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
	"rtmlab/internal/sim"
	"rtmlab/internal/stm"
)

var update = flag.Bool("update", false, "rewrite testdata/atomic_loop.golden from current output")

const loopGoldenPath = "testdata/atomic_loop.golden"

// loopCase is one backend × engine × STM-protocol configuration of the
// atomic-block loop.
type loopCase struct {
	backend Backend
	shards  int    // 0 = classic engine
	proto   string // STM protocol for backends with a software phase
}

func (lc loopCase) String() string {
	name := lc.backend.String()
	if lc.proto != "" {
		name += "/" + lc.proto
	}
	if lc.shards != 0 {
		name += fmt.Sprintf("/shards=%d", lc.shards)
	}
	return name
}

// loopCases lists every backend on the classic engine and at two shards;
// STM and Hybrid run once per STM protocol.
func loopCases() []loopCase {
	var cases []loopCase
	for _, shards := range []int{0, 2} {
		for _, b := range allBackends {
			if b != STM && b != Hybrid {
				cases = append(cases, loopCase{backend: b, shards: shards})
				continue
			}
			for _, p := range stm.Protocols() {
				cases = append(cases, loopCase{backend: b, shards: shards, proto: p})
			}
		}
	}
	return cases
}

// loopSystem builds the system for lc: Haswell with a 16-line L1, so the
// "overflow" site's write set cannot fit in hardware.
func loopSystem(lc loopCase) *System {
	cfg := arch.Haswell()
	cfg.L1 = arch.CacheGeom{SizeBytes: 16 * arch.LineSize, Ways: 4}
	cfg.Shard = arch.Sharding{Shards: lc.shards}
	cfg.STM.Protocol = lc.proto
	sys := NewSystem(cfg, lc.backend)
	for i := 0; i < loopAccounts; i++ {
		sys.H.Poke(uint64(i)*arch.LineSize, 1000)
	}
	return sys
}

const (
	loopAccounts = 24
	loopIters    = 40
)

// loopBody is the bank kernel with two extra sites. Every tenth
// iteration runs "overflow", which writes twice the L1 and restarts once
// at the end of its first complete pass: it drives every fallback path
// (serial lock, software phase) and a restart inside each.
// HTMBare skips it, since with no fallback it would retry forever. Every
// seventh iteration runs "restart", which restarts its first attempt.
// after, if non-nil, runs after every atomic block.
func loopBody(b Backend, overflowLines int, after func(c *Ctx)) func(c *Ctx) {
	return func(c *Ctx) {
		region := uint64(c.P.ID()+1) << 20
		for i := 0; i < loopIters; i++ {
			from := uint64(c.P.Rng.Intn(loopAccounts)) * arch.LineSize
			to := uint64(c.P.Rng.Intn(loopAccounts)) * arch.LineSize
			amt := int64(c.P.Rng.Intn(30))
			c.AtomicSite("transfer", func(tx Tx) {
				tx.Store(from, tx.Load(from)-amt)
				tx.Store(to, tx.Load(to)+amt)
			})
			if after != nil {
				after(c)
			}
			if i%10 == 3 && b != HTMBare {
				restarted := false
				c.AtomicSite("overflow", func(tx Tx) {
					for j := 0; j < overflowLines; j++ {
						a := region + uint64(j)*arch.LineSize
						tx.Store(a, tx.Load(a)+1)
					}
					if !restarted {
						restarted = true
						tx.Restart()
					}
				})
				if after != nil {
					after(c)
				}
			}
			if i%7 == 5 {
				first := true
				c.AtomicSite("restart", func(tx Tx) {
					v := tx.Load(to)
					if first {
						first = false
						tx.Restart()
					}
					tx.Store(to, v)
				})
				if after != nil {
					after(c)
				}
			}
		}
	}
}

// loopDigest runs lc with a recorder attached and hashes what the run
// left behind, one digest per output class.
func loopDigest(lc loopCase) string {
	sys := loopSystem(lc)
	rec := obs.NewRecorder("loop", 0)
	sys.SetRecorder(rec)
	res := sys.Run(4, 7, loopBody(lc.backend, 2*sys.Arch.L1.Lines(), nil))

	var parts []string
	sum := func(label string, write func(h hash.Hash)) {
		h := sha256.New()
		write(h)
		parts = append(parts, fmt.Sprintf("%s=%x", label, h.Sum(nil)[:8]))
	}
	sum("result", func(h hash.Hash) { writeResult(h, res) })
	sum("counters", func(h hash.Hash) {
		layers := map[string]map[string]uint64{"tm": {}, "htm": {}, "stm": {}}
		for k, v := range sys.Counters.Snapshot() {
			layers[counterLayer(k)][k] = v
		}
		for _, layer := range []string{"tm", "htm", "stm"} {
			writeCounters(h, layer, layers[layer])
		}
	})
	sum("obs", func(h hash.Hash) {
		for tid := 0; tid < rec.Threads(); tid++ {
			for _, e := range rec.ThreadEvents(tid) {
				fmt.Fprintf(h, "%d %+v\n", tid, e)
			}
		}
	})
	return strings.Join(parts, " ")
}

func writeResult(h hash.Hash, res sim.Result) {
	fmt.Fprintf(h, "cycles %d threads %v instr %v mem %+v\n",
		res.Cycles, res.ThreadCycles, res.Instr, res.MemStats)
}

// counterLayer names the layer that counts name, by its prefix; the
// digest hashes each layer's counters as one group, tm then htm then
// stm, the layout the golden file pins.
func counterLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "RTM_RETIRED:"), strings.HasPrefix(name, "htm:"):
		return "htm"
	case strings.HasPrefix(name, "stm:"):
		return "stm"
	}
	return "tm"
}

func writeCounters(h hash.Hash, set string, m map[string]uint64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s %d\n", set, k, m[k])
	}
}

// TestAtomicLoopGolden pins every simulated cycle, counter and recorder
// event the atomic-block loop produces, for every backend on both
// engines and every STM protocol. It is the parity check for changes
// to the loop. Run with -update to rewrite the golden file.
func TestAtomicLoopGolden(t *testing.T) {
	var got strings.Builder
	for _, lc := range loopCases() {
		fmt.Fprintf(&got, "%s %s\n", lc, loopDigest(lc))
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(loopGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(loopGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(loopGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d cases, run has %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("diverges from golden:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

// TestRetriesMatchesAbortEvents pins Ctx.Retries to its definition, block
// by block under every backend: the aborted attempts of the last atomic
// block, in any phase and restarts included, which is the number of
// abort events the block sent to the flight recorder.
func TestRetriesMatchesAbortEvents(t *testing.T) {
	for _, b := range allBackends {
		t.Run(b.String(), func(t *testing.T) {
			sys := loopSystem(loopCase{backend: b})
			rec := obs.NewRecorder("retries", 0)
			sys.SetRecorder(rec)
			seen := make([]int, sys.Arch.MaxThreads()) // events already counted, per thread
			retried, failures := 0, 0
			check := func(c *Ctx) {
				tid := c.P.ID()
				events := rec.ThreadEvents(tid)
				aborts := 0
				for _, e := range events[seen[tid]:] {
					if e.Kind == obs.KTxAbort {
						aborts++
					}
				}
				seen[tid] = len(events)
				if aborts > 0 {
					retried++
				}
				if got := c.Retries(); got != aborts && failures < 5 {
					failures++
					t.Errorf("thread %d at cycle %d: Retries() = %d, recorder saw %d aborts",
						tid, c.P.Cycles(), got, aborts)
				}
			}
			sys.Run(4, 7, loopBody(b, 2*sys.Arch.L1.Lines(), check))
			if retried == 0 {
				t.Fatal("no block aborted: the check proved nothing")
			}
		})
	}
}
