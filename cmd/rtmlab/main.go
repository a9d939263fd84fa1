// Command rtmlab regenerates the figures and tables of "Performance and
// Energy Analysis of the Restricted Transactional Memory Implementation
// on Haswell" (Goel et al.) on the simulated machine.
//
// Usage:
//
//	rtmlab [flags] <experiment>...
//	rtmlab -list
//	rtmlab all
//
// rtmlab -list prints the experiment ids.
//
// Independent experiment points run concurrently on -j workers (default:
// one per CPU); results are collected by point index, so the output is
// byte-identical at any -j. Within a point, -shards N runs the simulated
// threads on N epoch-synchronized engine shards (-shards -1 picks
// min(GOMAXPROCS, simulated cores)); sharded semantics depend only on
// the epoch length, so output is byte-identical for any shards >= 1, and
// -shards composes with -j. Use -cpuprofile/-memprofile to capture pprof
// profiles of the run.
//
// Every STM (and hybrid-fallback) run uses the concurrency-control
// protocol selected by -stm-protocol: tinystm (encounter-time locking,
// the default and the paper's subject), tl2 (commit-time locking) or
// norec (single sequence lock, value-based validation, no lock array).
// Tables, recorder labels and metrics sidecars name the protocol, so
// every figure becomes a protocol x workload matrix point.
//
// The flight recorder (-trace, -metrics) captures per-thread transaction
// events across the instrumented experiments (fig10, table4, table5,
// claims, hybrid): -trace writes one Chrome trace-event JSON file
// loadable in Perfetto (about://tracing), -metrics writes per-experiment
// JSON sidecars plus text summaries. Both outputs are byte-identical at
// any -j because recorders merge by (experiment, point, sub) key.
// Recorders store events only for -trace; -metrics alone needs their
// counts, and its sidecars are the same bytes with or without -trace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"rtmlab/internal/arch"
	"rtmlab/internal/harness"
	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/stm"
)

func main() {
	var (
		scale      = flag.String("scale", "small", "input scale: test | small | full")
		seeds      = flag.Int("seeds", 3, "independent runs to average (paper uses 10)")
		outDir     = flag.String("csv", "", "directory for CSV output (empty: none)")
		list       = flag.Bool("list", false, "list experiments and exit")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "concurrent experiment points (1 = sequential)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto)")
		metricsDir = flag.String("metrics", "", "directory for per-experiment JSON metrics + text summaries")
		traceLimit = flag.Int("trace-limit", 1<<16, "max events kept per thread track for -trace (0 = unbounded); events are stored only under -trace, and with -metrics alone this limit only sets dropped_events")
		shards     = flag.Int("shards", 0, "intra-point engine shards: 0 = classic serial engine, N > 0 = N epoch-synchronized workers, -1 = auto (min(GOMAXPROCS, simulated cores)); output is byte-identical for any shards >= 1")
		epochCyc   = flag.Uint64("epoch-cycles", 0, "coherence-epoch length in simulated cycles for -shards (0 = default)")
		stmProto   = flag.String("stm-protocol", stm.TinySTMName, "STM concurrency-control protocol: tinystm (encounter-time locking) | tl2 (commit-time locking) | norec (single sequence lock, value validation, no lock array); a semantic knob, byte-identical per setting at any -j/-shards")
	)
	flag.Parse()

	if *seeds < 1 {
		fmt.Fprintf(os.Stderr, "invalid -seeds %d (want a positive count)\n", *seeds)
		os.Exit(2)
	}
	if *shards < -1 {
		fmt.Fprintf(os.Stderr, "invalid -shards %d (want -1, 0 or a positive count)\n", *shards)
		os.Exit(2)
	}
	if *traceLimit < 0 {
		fmt.Fprintf(os.Stderr, "invalid -trace-limit %d (want 0 for unbounded or a positive count)\n", *traceLimit)
		os.Exit(2)
	}
	if *epochCyc != 0 && *shards == 0 {
		fmt.Fprintln(os.Stderr, "-epoch-cycles applies only to the sharded engine; add -shards N")
		os.Exit(2)
	}
	// Auto is resolved here, where host inputs belong: the simulator
	// packages take an explicit worker count and cap it at the
	// simulated core count.
	workers := *shards
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	o := harness.Options{Seeds: *seeds, OutDir: *outDir, Jobs: *jobs,
		Shards: workers, EpochCycles: *epochCyc}
	if *stmProto != stm.TinySTMName {
		// The default stays "", keeping default runs on the pristine
		// fast path (and their output bytes unchanged).
		o.STMProtocol = *stmProto
	}
	// The machine every experiment builds on, checked once: an unknown
	// -stm-protocol is rejected here, by arch.Config.Validate.
	if err := o.Machine().Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "invalid machine: %v\n", err)
		os.Exit(2)
	}
	if *traceOut != "" || *metricsDir != "" {
		o.Obs = obs.NewCollector(*traceLimit)
		o.Obs.Rings = *traceOut != "" // only the trace reads stored events
		ec := *epochCyc
		if *shards != 0 && ec == 0 {
			ec = arch.DefaultEpochCycles
		}
		o.Obs.SetRunConfig(*shards, ec, o.STMProtocol)
		o.Obs.SetFlags(obs.FlagValues(flag.CommandLine))
	}
	switch *scale {
	case "test":
		o.Scale = stamp.Test
	case "small":
		o.Scale = stamp.Small
	case "full":
		o.Scale = stamp.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	exps := harness.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Println(e.ID)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nrun `rtmlab -list` for experiment ids, or `rtmlab all`")
		os.Exit(2)
	}
	// Check every id before profiling or running anything: an unknown
	// id found mid-run would exit after the earlier experiments' output
	// and leave a -cpuprofile file truncated.
	byID := make(map[string]func(io.Writer, harness.Options), len(exps))
	for _, e := range exps {
		byID[e.ID] = e.Run
	}
	for _, id := range args {
		if _, ok := byID[id]; !ok && id != "all" {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
	}

	// Every output file is created before anything runs, so a bad path
	// fails before any work. Once the CPU profile runs, a failure is
	// reported and the remaining outputs still written; the profile is
	// stopped before exiting 1, so it is never left truncated.
	failed := false
	fail := func(what string, err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		failed = true
	}
	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}
	create := func(what, path string) *os.File {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			fail(what, err)
		}
		return f
	}
	traceFile := create("trace", *traceOut)
	memFile := create("memprofile", *memProfile)
	// finish writes one output file and closes it; false if either failed.
	finish := func(what string, f *os.File, write func(io.Writer) error) bool {
		err := write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(what, err)
		}
		return err == nil
	}

	if !failed {
		for _, id := range args {
			if id == "all" {
				harness.All(os.Stdout, o)
			} else {
				byID[id](os.Stdout, o)
			}
		}

		if traceFile != nil && finish("trace", traceFile, o.Obs.WriteChromeTrace) {
			fmt.Fprintf(os.Stderr, "trace written to %s (load in Perfetto / chrome://tracing)\n", *traceOut)
		}
		if *metricsDir != "" {
			if err := o.Obs.WriteMetrics(*metricsDir); err != nil {
				fail("metrics", err)
			} else {
				fmt.Fprintf(os.Stderr, "metrics written to %s\n", *metricsDir)
			}
		}
		if memFile != nil {
			runtime.GC() // materialise the retained heap before snapshotting
			finish("memprofile", memFile, pprof.WriteHeapProfile)
		}
	}

	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			fail("cpuprofile", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}
