package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rtmlab/internal/arch"
	"rtmlab/internal/eigenbench"
	"rtmlab/internal/energy"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/perf"
	"rtmlab/internal/sim"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// threads is the simulated thread count of every workload: the 4-thread
// column of the paper's Fig. 10.
const threads = 4

// recorderLimit is the per-track event cap of eigen-traced's recorders,
// the rtmlab CLI's -trace-limit default.
const recorderLimit = 1 << 16

// workload is one fixed input set. Why each exists is in README.md.
type workload struct {
	name    string
	backend tm.Backend
	shards  int  // 0: classic serial engine; > 0: epoch engine with that many host workers
	eigen   bool // Eigenbench points with a recorder instead of the STAMP suite
}

var workloads = []workload{
	{name: "stamp-rtm", backend: tm.HTM},
	{name: "stamp-tinystm", backend: tm.STM},
	{name: "stamp-rtm-sharded", backend: tm.HTM, shards: 2},
	{name: "eigen-traced", backend: tm.HTM, eigen: true},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

func (w workload) machine() *arch.Config {
	cfg := arch.Haswell()
	cfg.Shard.Shards = w.shards
	return cfg
}

// eigenPoint is one Eigenbench configuration of an eigen-traced round.
type eigenPoint struct {
	name string
	p    eigenbench.Params
}

// eigenPoints returns the five points of one eigen-traced round. Loops
// keeps each run between 0.05 and 0.5 s of host time at Small scale; Test
// scale divides it by eight.
func eigenPoints(scale stamp.Scale) []eigenPoint {
	mk := func(wsBytes, reads, writes, loops int) eigenbench.Params {
		p := eigenbench.Default(wsBytes)
		p.R2, p.W2 = reads, writes
		p.Loops = loops
		if scale == stamp.Test {
			p.Loops = max(loops/8, 1)
		}
		return p
	}
	hot := mk(64<<10, 81, 9, 200)
	hot.R1, hot.W1, hot.HotWords = 9, 1, 24
	return []eigenPoint{
		{"ws16k", mk(16<<10, 90, 10, 400)},
		{"ws1m", mk(1<<20, 90, 10, 300)},
		{"wr100", mk(256<<10, 0, 100, 300)},
		{"len520", mk(256<<10, 468, 52, 24)},
		{"hot24", hot},
	}
}

// counts are the simulated totals of a run or a round, summed over every
// region the host simulated.
type counts struct {
	cycles, instr, regions uint64
	mem                    mem.Stats

	htmStarts, htmCommits                      uint64
	conflict, readCap, writeCap, misc3, misc5  uint64
	stmBegins, stmCommits                      uint64
	atomic, fallbacks, lockAborts, abortsTotal uint64
}

func (c *counts) addRegion(r sim.Result) {
	c.cycles += r.Cycles
	c.instr += r.TotalInstr()
	c.regions++
	c.mem = c.mem.Add(r.MemStats)
}

// addSystem adds the final counter values of a finished run.
func (c *counts) addSystem(sys *tm.System) {
	if h := sys.HTM; h != nil {
		c.htmStarts += h.Counters.Get(perf.RTMStart)
		c.htmCommits += h.Counters.Get(perf.RTMCommit)
		c.conflict += h.Counters.Get("htm:abort.conflict")
		c.readCap += h.Counters.Get("htm:abort.read-capacity")
		c.writeCap += h.Counters.Get("htm:abort.write-capacity")
		c.misc3 += h.Counters.Get(perf.RTMAbortedMisc3)
		c.misc5 += h.Counters.Get(perf.RTMAbortedMisc5)
	}
	if s := sys.STM; s != nil {
		c.stmBegins += s.Counters.Get("stm:begin")
		c.stmCommits += s.Counters.Get("stm:commit")
	}
	c.atomic += sys.Counters.Get("tm:atomic")
	c.fallbacks += sys.Counters.Get("tm:fallback")
	c.lockAborts += sys.Counters.Get("tm:abort.lock")
	c.abortsTotal += sys.Aborts()
}

func (c *counts) add(o counts) {
	c.mem = c.mem.Add(o.mem)
	c.cycles += o.cycles
	c.instr += o.instr
	c.regions += o.regions
	c.htmStarts += o.htmStarts
	c.htmCommits += o.htmCommits
	c.conflict += o.conflict
	c.readCap += o.readCap
	c.writeCap += o.writeCap
	c.misc3 += o.misc3
	c.misc5 += o.misc5
	c.stmBegins += o.stmBegins
	c.stmCommits += o.stmCommits
	c.atomic += o.atomic
	c.fallbacks += o.fallbacks
	c.lockAborts += o.lockAborts
	c.abortsTotal += o.abortsTotal
}

// run is the measurement of one simulation run (one STAMP application or
// one Eigenbench point), from tm.NewSystem to the end of validation.
type run struct {
	name     string
	total    time.Duration // NewSystem .. validation
	newSys   time.Duration
	wlSetup  time.Duration // the stamp.Setup region, or the recorder attach
	validate time.Duration
	digest   [32]byte
	err      error
	c        counts
}

// round is one pass over every run of a workload.
type round struct {
	runs         []run
	wall         time.Duration
	export       time.Duration // obs.WriteMetrics (eigen-traced only)
	sidecarBytes int64
	sidecar      [32]byte // digest of the deterministic sidecars (eigen-traced only)
}

func (r round) simCycles() uint64 {
	var c uint64
	for _, x := range r.runs {
		c += x.c.cycles
	}
	return c
}

// digest folds the round's run digests and sidecar digest into one.
func (r round) digest() string {
	h := sha256.New()
	for _, x := range r.runs {
		h.Write(x.digest[:])
	}
	h.Write(r.sidecar[:])
	return fmt.Sprintf("%x", h.Sum(nil))
}

// play runs one round of w. tmp receives eigen-traced's sidecars, and tr,
// when non-nil, a span around each layer call.
func (w workload) play(seed uint64, scale stamp.Scale, tmp string, tr *tracer) (round, error) {
	start := time.Now()
	rs := tr.open("round", -1, start)
	var r round
	if w.eigen {
		col := obs.NewCollector(recorderLimit)
		col.BeginExperiment(w.name)
		for i, pt := range eigenPoints(scale) {
			r.runs = append(r.runs, w.eigenRun(pt, i, seed, col, tr, rs))
		}
		if err := r.writeSidecars(col, tmp, tr, rs); err != nil {
			return r, err
		}
	} else {
		for _, b := range stamp.Registry(scale) {
			r.runs = append(r.runs, w.stampRun(b, seed, tr, rs))
		}
	}
	end := time.Now()
	tr.close(rs, end)
	r.wall = end.Sub(start)
	return r, nil
}

// stampResult holds the simulated outputs of one STAMP run that the
// digest covers. Fields mean what they mean in stamp.Result; Breakdown is
// the region-of-interest delta of each counter in abortCounters.
type stampResult struct {
	SetupCycles, Cycles, Instr uint64
	Starts, Commits, Aborts    uint64
	EnergyJ                    float64
	Mem                        mem.Stats
	Breakdown                  [len(abortCounters)]uint64
}

// abortCounters are the counters behind the paper's abort breakdown
// (Fig. 12), as (layer, name).
var abortCounters = [...][2]string{
	{"tm", "tm:fallback"},
	{"tm", "tm:abort.lock"},
	{"tm", "tm:abort.lock.conflict"},
	{"tm", "tm:abort.lock.explicit"},
	{"htm", "htm:abort.conflict"},
	{"htm", "htm:abort.read-capacity"},
	{"htm", "htm:abort.write-capacity"},
	{"htm", perf.RTMAbortedMisc3},
	{"htm", perf.RTMAbortedMisc5},
	{"stm", "stm:abort"},
}

func readAbortCounters(sys *tm.System) (out [len(abortCounters)]uint64) {
	for i, c := range abortCounters {
		switch {
		case c[0] == "tm":
			out[i] = sys.Counters.Get(c[1])
		case c[0] == "htm" && sys.HTM != nil:
			out[i] = sys.HTM.Counters.Get(c[1])
		case c[0] == "stm" && sys.STM != nil:
			out[i] = sys.STM.Counters.Get(c[1])
		}
	}
	return out
}

// startsCommits returns the attempted and committed transactions so far,
// counted at the backend the way stamp.Run counts them.
func startsCommits(sys *tm.System) (uint64, uint64) {
	switch sys.Backend {
	case tm.HTM, tm.HTMBare:
		return sys.HTM.Counters.Get(perf.RTMStart), sys.HTM.Counters.Get(perf.RTMCommit)
	case tm.STM:
		return sys.STM.Counters.Get("stm:begin"), sys.STM.Counters.Get("stm:commit")
	default:
		n := sys.Counters.Get("tm:atomic")
		return n, n
	}
}

// driveStamp runs b once as stamp.Run does, calling each layer through
// its public API, and returns the simulated outputs, the totals of every
// region, the validation error, and the host time at each layer
// boundary: before tm.NewSystem, then after NewSystem, Setup, Parallel,
// energy.Compute and Validate.
func driveStamp(b stamp.Benchmark, cfg *arch.Config, backend tm.Backend, seed uint64) (stampResult, counts, [6]time.Time, error) {
	var c counts
	var at [6]time.Time

	at[0] = time.Now()
	sys := tm.NewSystem(cfg, backend)
	at[1] = time.Now()
	setup := sys.Run(1, seed, func(ctx *tm.Ctx) { b.Setup(ctx, seed) })
	at[2] = time.Now()
	c.addRegion(setup)

	abortsBefore := sys.Aborts()
	startsBefore, commitsBefore := startsCommits(sys)
	breakdownBefore := readAbortCounters(sys)
	var roi counts
	var threadCycles []uint64
	sys.RegionHook = func(r sim.Result) {
		roi.addRegion(r)
		for i, cyc := range r.ThreadCycles {
			if i == len(threadCycles) {
				threadCycles = append(threadCycles, 0)
			}
			threadCycles[i] += cyc
		}
	}
	b.Parallel(sys, threads, seed)
	sys.RegionHook = nil
	at[3] = time.Now()
	report := energy.Compute(sys.Arch, energy.Measure{
		Cycles:       roi.cycles,
		ThreadCycles: threadCycles,
		Instr:        roi.instr,
		Mem:          roi.mem,
		Aborts:       sys.Aborts() - abortsBefore,
	})
	at[4] = time.Now()
	err := b.Validate(sys)
	at[5] = time.Now()

	starts, commits := startsCommits(sys)
	res := stampResult{
		SetupCycles: setup.Cycles,
		Cycles:      roi.cycles,
		Instr:       roi.instr,
		Starts:      starts - startsBefore,
		Commits:     commits - commitsBefore,
		Aborts:      sys.Aborts() - abortsBefore,
		EnergyJ:     report.Total(),
		Mem:         roi.mem,
	}
	after := readAbortCounters(sys)
	for i := range after {
		res.Breakdown[i] = after[i] - breakdownBefore[i]
	}
	c.add(roi)
	c.addSystem(sys)
	return res, c, at, err
}

// stampRun times one STAMP application run and records its spans.
func (w workload) stampRun(b stamp.Benchmark, seed uint64, tr *tracer, parent int) (out run) {
	out.name = b.Name()
	defer recoverRun(&out)
	res, c, at, err := driveStamp(b, w.machine(), w.backend, seed)
	sp := tr.open("run", parent, at[0])
	tr.leaf("tm.NewSystem", sp, at[0], at[1])
	tr.leaf("stamp.Setup", sp, at[1], at[2])
	tr.leaf("stamp.Parallel", sp, at[2], at[3])
	tr.leaf("energy.Compute", sp, at[3], at[4])
	tr.leaf("stamp.Validate", sp, at[4], at[5])
	tr.close(sp, at[5])

	out.total = at[5].Sub(at[0])
	out.newSys = at[1].Sub(at[0])
	out.wlSetup = at[2].Sub(at[1])
	out.validate = at[5].Sub(at[4])
	out.c = c
	out.digest = res.digest()
	if err != nil {
		out.err = fmt.Errorf("%s: validate: %w", out.name, err)
	}
	return out
}

// eigenRun times one Eigenbench point with a recorder attached.
func (w workload) eigenRun(pt eigenPoint, point int, seed uint64, col *obs.Collector, tr *tracer, parent int) (out run) {
	out.name = pt.name
	defer recoverRun(&out)
	t0 := time.Now()
	sys := tm.NewSystem(w.machine(), w.backend)
	t1 := time.Now()
	sys.SetRecorder(col.Recorder(point, pt.name))
	t2 := time.Now()
	var c counts
	sys.RegionHook = c.addRegion
	res := eigenbench.Run(sys, pt.p, seed)
	sys.RegionHook = nil
	t3 := time.Now()
	c.addSystem(sys)
	err := checkEigen(pt.p, res, c)
	out.digest = eigenDigest(res)
	t4 := time.Now()

	sp := tr.open("run", parent, t0)
	tr.leaf("tm.NewSystem", sp, t0, t1)
	tr.leaf("obs.SetRecorder", sp, t1, t2)
	tr.leaf("eigenbench.Run", sp, t2, t3)
	tr.leaf("eigen.Validate", sp, t3, t4)
	tr.close(sp, t4)

	out.total = t4.Sub(t0)
	out.newSys = t1.Sub(t0)
	out.wlSetup = t2.Sub(t1)
	out.validate = t4.Sub(t3)
	out.c = c
	if err != nil {
		out.err = fmt.Errorf("%s: %w", out.name, err)
	}
	return out
}

// checkEigen checks the TM accounting of one RTM Eigenbench run: every
// atomic block (warm-up included) ends in exactly one hardware commit or
// one fallback, and every hardware attempt commits or aborts.
func checkEigen(p eigenbench.Params, res eigenbench.Result, c counts) error {
	warm := p.Warmup
	if warm == 0 {
		warm = p.Loops / 4
	}
	blocks := uint64(p.Threads * (p.Loops + warm))
	switch {
	case res.Cycles == 0 || res.Commits != uint64(p.Threads*p.Loops):
		return fmt.Errorf("result has %d cycles and %d commits, want > 0 and %d", res.Cycles, res.Commits, p.Threads*p.Loops)
	case c.atomic != blocks:
		return fmt.Errorf("%d atomic blocks, want %d", c.atomic, blocks)
	case c.htmCommits+c.fallbacks != c.atomic:
		return fmt.Errorf("%d commits + %d fallbacks != %d atomic blocks", c.htmCommits, c.fallbacks, c.atomic)
	case c.htmStarts != c.htmCommits+c.abortsTotal:
		return fmt.Errorf("%d starts != %d commits + %d aborts", c.htmStarts, c.htmCommits, c.abortsTotal)
	}
	return nil
}

// writeSidecars exports the round's recorders once with obs.WriteMetrics
// and hashes what it wrote. The host-timed .timing.json sidecar counts
// towards the bytes but not the digest.
func (r *round) writeSidecars(col *obs.Collector, tmp string, tr *tracer, parent int) error {
	dir, err := os.MkdirTemp(tmp, "sidecars-")
	if err != nil {
		return fmt.Errorf("sidecar dir: %w", err)
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	err = col.WriteMetrics(dir)
	t1 := time.Now()
	tr.leaf("obs.WriteMetrics", parent, t0, t1)
	r.export = t1.Sub(t0)
	if err != nil {
		return fmt.Errorf("obs.WriteMetrics: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		r.sidecarBytes += int64(len(data))
		if strings.HasSuffix(name, ".timing.json") {
			continue
		}
		h.Write([]byte(name))
		h.Write(data)
	}
	copy(r.sidecar[:], h.Sum(nil))
	return nil
}

// recoverRun turns a panic inside a run into that run's failure.
func recoverRun(out *run) {
	if p := recover(); p != nil {
		out.err = fmt.Errorf("%s: panic: %v", out.name, p)
	}
}

// hashWords hashes a sequence of 64-bit words.
func hashWords(words ...uint64) [32]byte {
	buf := make([]byte, 0, 8*len(words))
	for _, x := range words {
		buf = binary.LittleEndian.AppendUint64(buf, x)
	}
	return sha256.Sum256(buf)
}

// digest hashes every field of r, floats by their bits.
func (r stampResult) digest() [32]byte {
	m := r.Mem
	words := []uint64{r.SetupCycles, r.Cycles, r.Instr, r.Starts, r.Commits, r.Aborts, math.Float64bits(r.EnergyJ),
		m.L1Accesses, m.L1Hits, m.L2Accesses, m.L2Hits, m.L3Accesses, m.L3Hits, m.MemAccesses,
		m.C2CTransfers, m.Invalidations, m.Writebacks, m.L1Evictions, m.L2Evictions, m.L3Evictions, m.Prefetches}
	return hashWords(append(words, r.Breakdown[:]...)...)
}

// eigenDigest hashes every field of an Eigenbench result, floats by their
// bits.
func eigenDigest(r eigenbench.Result) [32]byte {
	return hashWords(r.Cycles, math.Float64bits(r.EnergyJ), r.Commits, r.Aborts, math.Float64bits(r.AbortRate), r.Instr)
}
