// Command rtmbench is rtmlab's end-to-end benchmark. It drives the
// simulator from outside, through the public layer APIs, over four fixed
// workloads; times every call into a layer; checks each simulated output
// against an earlier round on the same input and against a pinned
// digest; and, in a separate traced run, folds a CPU profile into
// per-layer shares.
//
// Usage (from the repository root; bench/run.sh builds and wraps it):
//
//	rtmbench -workload stamp-rtm [-seed 42] [-seconds 20] [-trace 0|1]
//	rtmbench check
//	rtmbench compare A/ B/
//
// The last line of a workload run is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the metric,
// workload and layer definitions.
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rtmlab/internal/stamp"
)

// schema versions the result files.
const schema = "rtmbench/v1"

// minRuns is the fewest timed runs a workload aims for: at 100 samples
// the 90th percentile still has ten samples beyond it. A slowed host may
// cut it short, since timing stops at maxStretch times --seconds.
const minRuns = 100

// maxStretch bounds how far past --seconds the timed rounds may run to
// reach minRuns, which keeps a workload process within its time budget
// when other tenants slow the host.
const maxStretch = 1.5

// pinnedDigestsJSON maps each workload to its digest at seed 42 and
// Small scale. A modelling change that moves a simulated output must
// re-pin it.
//
//go:embed digests.json
var pinnedDigestsJSON []byte

var errFailed = errors.New("some runs failed")

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "check":
		err = checkClaims(os.Stdout)
	case len(args) > 0 && args[0] == "compare":
		err = compare(os.Stdout, args[1:])
	default:
		err = bench(os.Stdout, args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the file written to <out>/<workload>.json (untraced) or
// <out>/<workload>.traced.json.
type result struct {
	Schema     string               `json:"schema"`
	Workload   string               `json:"workload"`
	Traced     bool                 `json:"traced"`
	Provenance provenance           `json:"provenance"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Failures   []string             `json:"failures,omitempty"`
	Digest     string               `json:"digest"`
	Pinned     string               `json:"pinned_digest,omitempty"`
	Metrics    map[string]metric    `json:"metrics"`
	Samples    map[string][]float64 `json:"samples,omitempty"`
	SpanSelfMS map[string]float64   `json:"span_self_ms,omitempty"`
}

// provenance says what produced a result file.
type provenance struct {
	VCSRevision string            `json:"vcs_revision"`
	VCSModified string            `json:"vcs_modified"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	CPUModel    string            `json:"cpu_model"`
	Seed        uint64            `json:"seed"`
	Flags       map[string]string `json:"flags"`
	Rounds      int               `json:"rounds"`
	PercentileN map[string]int    `json:"percentile_n"`
}

func bench(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("rtmbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	seed := fs.Uint64("seed", 42, "workload seed; inputs and simulated schedules derive from it")
	seconds := fs.Float64("seconds", 20, "timed duration; rounds go on to 100 timed runs, up to 1.5 times this")
	trace := fs.Int("trace", 0, "1: traced run with spans, a CPU profile and the per-layer metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result, trace and profile files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	pinned := map[string]string{}
	if err := json.Unmarshal(pinnedDigestsJSON, &pinned); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(*out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	s := &session{wl: wl, seed: *seed, scale: stamp.Small, tmp: tmp}
	if *seed == 42 {
		s.pinned = pinned[wl.name]
	}
	if err := s.warmUp(); err != nil {
		return err
	}
	var res result
	if *trace == 1 {
		res, err = s.traced(*seconds, *out)
	} else {
		res, err = s.untraced(*seconds)
	}
	if err != nil {
		return err
	}
	res.Provenance.Seed = *seed
	res.Provenance.Flags = map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { res.Provenance.Flags[f.Name] = f.Value.String() })
	fillHost(&res.Provenance)

	want := sp.EndToEnd
	file := wl.name + ".json"
	if res.Traced {
		want = sp.PerLayer
		file = wl.name + ".traced.json"
	}
	line, err := contractLine(res, want)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, file), append(data, '\n'), 0o644); err != nil {
		return err
	}
	printListing(w, res, want)
	fmt.Fprintln(w, string(line))
	if res.Failed > 0 {
		return errFailed
	}
	return nil
}

// inputSets is the number of input sets a workload process rotates
// through, one per round. Rotating puts the host cost of several inputs
// into every metric, so the metrics move less from one seed to another.
const inputSets = 4

// inputSeed derives the seed of input set k from the workload seed with
// a splitmix64 step, so that neighbouring seeds share no input set.
func inputSeed(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// session is one workload process. The first round played on each input
// set (the warm-up round for set 0) is that set's reference: every later
// round on the set must reproduce its digests.
type session struct {
	wl     workload
	seed   uint64
	scale  stamp.Scale
	tmp    string
	pinned string // the pinned workload digest; "" when the seed has none

	refs      [inputSets]*round
	attempted int
	failed    int
	failures  []string
}

// play collects garbage, so that every round starts from the same heap,
// then plays one round on input set k.
func (s *session) play(k int, tr *tracer) (round, error) {
	runtime.GC()
	return s.wl.play(inputSeed(s.seed, k), s.scale, s.tmp, tr)
}

// warmUp plays the untimed first round, on input set 0.
func (s *session) warmUp() error {
	r, err := s.play(0, nil)
	s.refs[0] = &r
	return err
}

// check counts the runs of a timed round on input set k and those that
// failed: they panicked, failed validation, or differ from the set's
// reference round.
func (s *session) check(k int, r round) {
	ref := s.refs[k]
	if ref == nil {
		s.refs[k] = &r
	}
	for i, x := range r.runs {
		s.attempted++
		var why string
		switch {
		case x.err != nil:
			why = x.err.Error()
		case ref == nil:
			continue
		case ref.runs[i].err != nil:
			why = x.name + ": reference run failed: " + ref.runs[i].err.Error()
		case x.digest != ref.runs[i].digest:
			why = x.name + ": simulated outputs differ from an earlier round on the same input"
		case r.sidecar != ref.sidecar:
			why = x.name + ": metrics sidecars differ from an earlier round on the same input"
		default:
			continue
		}
		s.failed++
		if len(s.failures) < 10 {
			s.failures = append(s.failures, why)
		}
	}
}

// digest folds the reference rounds of every input set into the
// workload digest pinned in digests.json.
func (s *session) digest() string {
	h := sha256.New()
	for _, r := range s.refs {
		if r == nil {
			return "incomplete: not every input set was played"
		}
		h.Write([]byte(r.digest()))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// finish fills the correctness fields of res. A workload digest that
// differs from the pinned one fails every run.
func (s *session) finish(res *result) {
	res.Schema = schema
	res.Workload = s.wl.name
	res.Digest = s.digest()
	res.Pinned = s.pinned
	if s.pinned != "" && res.Digest != s.pinned {
		s.failed = s.attempted
		s.failures = append(s.failures, "workload digest differs from the pinned digest")
	}
	res.Attempted, res.Failed, res.Failures = s.attempted, s.failed, s.failures
}

// untraced times rounds for at least seconds and one round per input
// set, and on until minRuns runs are timed or maxStretch times seconds
// have passed, and reports the end-to-end metrics. The warm-up played
// input set 0, so the timed rounds start at set 1.
func (s *session) untraced(seconds float64) (result, error) {
	var rounds []round
	n := 0
	start := time.Now()
	more := func() bool {
		elapsed := time.Since(start).Seconds()
		return len(rounds) < inputSets || elapsed < seconds || n < minRuns && elapsed < maxStretch*seconds
	}
	for more() {
		k := (len(rounds) + 1) % inputSets
		r, err := s.play(k, nil)
		if err != nil {
			return result{}, err
		}
		s.check(k, r)
		rounds = append(rounds, r)
		n += len(r.runs)
	}
	res := endToEnd(rounds)
	s.finish(&res)
	res.Metrics["failed_share"] = metric{float64(res.Failed) / float64(res.Attempted), "fraction"}
	return res, nil
}

// endToEnd computes the end-to-end metrics of the timed rounds. The
// simulation rate is the best round's: other tenants of a shared host
// slow whole stretches of rounds, and the best round is the one they
// disturbed least.
func endToEnd(rounds []round) result {
	var runMS, runMcyc, rate, setup []float64
	for _, r := range rounds {
		var setupS float64
		for _, x := range r.runs {
			runMS = append(runMS, ms(x.total))
			runMcyc = append(runMcyc, float64(x.c.cycles)/1e6)
			setupS += (x.newSys + x.wlSetup).Seconds()
		}
		rate = append(rate, float64(r.simCycles())/1e6/r.wall.Seconds())
		setup = append(setup, setupS)
	}
	res := result{
		Metrics: map[string]metric{
			"sim_mcycles_per_s": {slices.Max(rate), "Mcycles/s"},
			"run_ms_p50":        {percentile(runMS, 50), "ms"},
			"run_ms_p90":        {percentile(runMS, 90), "ms"},
			"setup_s":           {median(setup), "s"},
			"peak_rss_mb":       {peakRSSMiB(), "MiB"},
		},
		Samples: map[string][]float64{"run_ms": runMS, "run_mcycles": runMcyc, "round_mcycles_per_s": rate, "round_setup_s": setup},
	}
	res.Provenance.Rounds = len(rounds)
	res.Provenance.PercentileN = map[string]int{
		"run_ms_p50": len(runMS), "run_ms_p90": len(runMS), "run_ms_p90_beyond": beyond(len(runMS), 90),
		"sim_mcycles_per_s": len(rate), "setup_s": len(setup),
	}
	return res
}

// traced plays, on each input set in turn, an untraced round and then a
// traced one. It plays whole cycles over the sets, as many as fit in
// seconds and at least one, which keeps the per-round simulated counts
// exact for a seed. Traced rounds record spans and a CPU profile; the
// untraced ones give the baseline of trace_overhead_pct.
func (s *session) traced(seconds float64, out string) (result, error) {
	tr := newTracer()
	var plain, traced []round
	var profiles []string
	var cpu, wall time.Duration
	var rt runtimeDelta
	start := time.Now()
	another := func(i int) bool {
		if i == 0 || i%inputSets != 0 {
			return true
		}
		elapsed := time.Since(start)
		perCycle := elapsed / time.Duration(i/inputSets)
		return (elapsed + perCycle).Seconds() <= seconds
	}
	for i := 0; another(i); i++ {
		k := i % inputSets
		u, err := s.play(k, nil)
		if err != nil {
			return result{}, err
		}
		s.check(k, u)
		plain = append(plain, u)

		runtime.GC()
		path := filepath.Join(s.tmp, fmt.Sprintf("cpu.%d.pprof", i))
		f, err := os.Create(path)
		if err != nil {
			return result{}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return result{}, err
		}
		cpu0, rt0 := cpuTime(), readRuntime()
		t, err := s.wl.play(inputSeed(s.seed, k), s.scale, s.tmp, tr)
		cpu += cpuTime() - cpu0
		rt.add(rt0, readRuntime())
		pprof.StopCPUProfile()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, err
		}
		s.check(k, t)
		traced = append(traced, t)
		profiles = append(profiles, path)
		wall += t.wall
	}
	shares, top, err := profileShares(profiles)
	if err != nil {
		return result{}, err
	}
	if err := os.WriteFile(filepath.Join(out, s.wl.name+".pprof.txt"), top, 0o644); err != nil {
		return result{}, err
	}
	if err := tr.writeChrome(filepath.Join(out, s.wl.name+".trace.json")); err != nil {
		return result{}, err
	}
	res := result{Traced: true, Metrics: layerMetrics(traced, plain, shares, cpu, wall, rt)}
	res.SpanSelfMS = map[string]float64{}
	for name, d := range tr.selfByName() {
		res.SpanSelfMS[name] = ms(d) / float64(len(traced))
	}
	res.Provenance.Rounds = len(traced)
	res.Provenance.PercentileN = map[string]int{"traced_runs": len(traced) * len(traced[0].runs),
		"untraced_runs": len(plain) * len(plain[0].runs)}
	s.finish(&res)
	return res, nil
}

// layerMetrics computes the per-layer metrics of the traced rounds:
// simulated counts per round, host cost per simulated event from the
// profile shares, and the Go runtime's own accounting.
func layerMetrics(traced, plain []round, shares map[string]float64, cpu, wall time.Duration, rt runtimeDelta) map[string]metric {
	var c counts
	var runs int
	var export, sidecar, newSys, setup, validate, tracedMS, plainMS []float64
	for _, r := range traced {
		for _, x := range r.runs {
			c.add(x.c)
			runs++
			newSys = append(newSys, ms(x.newSys))
			setup = append(setup, ms(x.wlSetup))
			validate = append(validate, ms(x.validate))
			tracedMS = append(tracedMS, ms(x.total))
		}
		export = append(export, ms(r.export))
		sidecar = append(sidecar, float64(r.sidecarBytes))
	}
	for _, r := range plain {
		for _, x := range r.runs {
			plainMS = append(plainMS, ms(x.total))
		}
	}
	n := float64(len(traced))
	perRound := func(v uint64) float64 { return float64(v) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layerNS := func(l ...string) float64 {
		var share float64
		for _, x := range l {
			share += shares[x]
		}
		return share * float64(cpu)
	}
	m := c.mem
	out := map[string]metric{
		"sim.mcycles":           {perRound(c.cycles) / 1e6, "Mcycles"},
		"sim.minstr":            {perRound(c.instr) / 1e6, "Minstr"},
		"sim.regions":           {perRound(c.regions), "count"},
		"sim.host_ns_per_cycle": {ratio(layerNS("sim"), float64(c.cycles)), "ns/cycle"},
		"sim.host_parallelism":  {ratio(cpu.Seconds(), wall.Seconds()), "cpu-s/s"},

		"mem.l1_accesses":        {perRound(m.L1Accesses), "count"},
		"mem.l1_hit_rate":        {ratio(float64(m.L1Hits), float64(m.L1Accesses)), "fraction"},
		"mem.l2_hit_rate":        {ratio(float64(m.L2Hits), float64(m.L2Accesses)), "fraction"},
		"mem.l3_hit_rate":        {ratio(float64(m.L3Hits), float64(m.L3Accesses)), "fraction"},
		"mem.dram_accesses":      {perRound(m.MemAccesses), "count"},
		"mem.c2c_transfers":      {perRound(m.C2CTransfers), "count"},
		"mem.invalidations":      {perRound(m.Invalidations), "count"},
		"mem.host_ns_per_access": {ratio(layerNS("mem", "lineset"), float64(m.L1Accesses)), "ns/access"},

		"htm.starts":                {perRound(c.htmStarts), "count"},
		"htm.commits":               {perRound(c.htmCommits), "count"},
		"htm.commit_ratio":          {ratio(float64(c.htmCommits), float64(c.htmStarts)), "fraction"},
		"htm.aborts.conflict":       {perRound(c.conflict), "count"},
		"htm.aborts.read_capacity":  {perRound(c.readCap), "count"},
		"htm.aborts.write_capacity": {perRound(c.writeCap), "count"},
		"htm.aborts.misc3":          {perRound(c.misc3), "count"},
		"htm.aborts.misc5":          {perRound(c.misc5), "count"},
		"htm.host_ns_per_attempt":   {ratio(layerNS("htm"), float64(c.htmStarts)), "ns/attempt"},

		"stm.begins":              {perRound(c.stmBegins), "count"},
		"stm.commits":             {perRound(c.stmCommits), "count"},
		"stm.commit_ratio":        {ratio(float64(c.stmCommits), float64(c.stmBegins)), "fraction"},
		"stm.host_ns_per_attempt": {ratio(layerNS("stm"), float64(c.stmBegins)), "ns/attempt"},

		"tm.atomic_blocks":      {perRound(c.atomic), "count"},
		"tm.fallbacks":          {perRound(c.fallbacks), "count"},
		"tm.lock_aborts":        {perRound(c.lockAborts), "count"},
		"tm.retries_per_commit": {ratio(float64(c.abortsTotal), float64(c.atomic)), "ratio"},

		"obs.export_ms_p50": {percentile(export, 50), "ms/round"},
		"obs.sidecar_bytes": {median(sidecar), "bytes"},

		"tm.new_system_ms_p50":     {percentile(newSys, 50), "ms"},
		"workload.setup_ms_p50":    {percentile(setup, 50), "ms"},
		"workload.validate_ms_p50": {percentile(validate, 50), "ms"},

		"runtime.alloc_mb_per_run": {rt.allocBytes / float64(runs) / (1 << 20), "MiB/run"},
		"runtime.gc_cycles":        {rt.gcCycles / n, "count/round"},
		"runtime.gc_cpu_share":     {ratio(rt.gcCPU, rt.busyCPU), "fraction"},

		"trace_overhead_pct": {100 * (ratio(percentile(tracedMS, 50), percentile(plainMS, 50)) - 1), "%"},
	}
	for _, l := range layers {
		out["layer."+l+".self_share"] = metric{shares[l], "fraction"}
	}
	return out
}

// contractLine renders the last output line: the correctness counts and
// exactly the metrics the benchmark definition lists for this mode.
func contractLine(res result, want []specMetric) ([]byte, error) {
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists %q, which the benchmark does not compute", m.Name)
		}
		if v.Unit != m.Unit {
			return nil, fmt.Errorf("metric %q: unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
		metrics[m.Name] = v
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
}

// printListing prints every reported metric by name with its unit.
func printListing(w io.Writer, res result, want []specMetric) {
	pin := "no pinned digest for this seed"
	if res.Pinned != "" {
		pin = "pinned digest matches"
		if res.Digest != res.Pinned {
			pin = "PINNED DIGEST DIFFERS: " + res.Pinned
		}
	}
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	p := res.Provenance
	fmt.Fprintf(w, "rtmbench %s (%s) seed=%d rounds=%d runs=%d failed=%d\n", res.Workload, mode, p.Seed, p.Rounds, res.Attempted, res.Failed)
	fmt.Fprintf(w, "  digest %s (%s)\n", res.Digest, pin)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	for _, m := range want {
		v := res.Metrics[m.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.Name, v.Value, v.Unit)
	}
	if fs, ok := res.Metrics["failed_share"]; ok {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", "failed_share", fs.Value, fs.Unit)
	}
	if n := p.PercentileN["run_ms_p50"]; n > 0 {
		fmt.Fprintf(w, "  n=%d runs for run_ms_p50/p90, %d beyond p90\n", n, p.PercentileN["run_ms_p90_beyond"])
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeDelta accumulates the Go runtime's accounting over the traced
// rounds.
type runtimeDelta struct {
	allocBytes, gcCycles, gcCPU, busyCPU float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() [5]float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var out [5]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		}
	}
	return out
}

func (d *runtimeDelta) add(before, after [5]float64) {
	d.allocBytes += after[0] - before[0]
	d.gcCycles += after[1] - before[1]
	d.gcCPU += after[2] - before[2]
	d.busyCPU += (after[3] - before[3]) - (after[4] - before[4])
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// fillHost records the build and host half of the provenance.
func fillHost(p *provenance) {
	p.VCSRevision, p.VCSModified = "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	p.GoVersion = runtime.Version()
	p.NumCPU = runtime.NumCPU()
	p.GOMAXPROCS = runtime.GOMAXPROCS(0)
	p.CPUModel = "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				p.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
}
