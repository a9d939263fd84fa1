package harness

import (
	"fmt"
	"io"

	"rtmlab/internal/runner"
	"rtmlab/internal/stamp"
	"rtmlab/internal/stats"
	"rtmlab/internal/tm"
)

// stampThreads returns the thread counts for the STAMP comparison.
func stampThreads(o Options) []int {
	if o.Scale == stamp.Test {
		return []int{1, 4}
	}
	return []int{1, 2, 4, 8}
}

// stampApps builds fresh benchmark constructors at the option scale.
func stampApps(o Options) []func() stamp.Benchmark {
	s := o.Scale
	return []func() stamp.Benchmark{
		func() stamp.Benchmark { return stamp.NewBayes(s) },
		func() stamp.Benchmark { return stamp.NewGenome(s) },
		func() stamp.Benchmark { return stamp.NewIntruder(s, false) },
		func() stamp.Benchmark { return stamp.NewKMeans(s) },
		func() stamp.Benchmark { return stamp.NewLabyrinth(s) },
		func() stamp.Benchmark { return stamp.NewSSCA2(s) },
		func() stamp.Benchmark { return stamp.NewVacation(s, false) },
		func() stamp.Benchmark { return stamp.NewYada(s) },
	}
}

// Fig10to12 regenerates the STAMP comparison: normalized execution time
// (Fig. 10), normalized energy (Fig. 11) and the RTM abort-type
// distribution (Fig. 12), from one set of runs.
func Fig10to12(w io.Writer, o Options) {
	time10 := &Table{
		ID:     "fig10",
		Title:  "STAMP execution time normalized to sequential (lower is better)",
		Header: []string{"app", "sys", "1t", "2t", "4t", "8t"},
	}
	energy11 := &Table{
		ID:     "fig11",
		Title:  "STAMP energy normalized to sequential (lower is better)",
		Header: []string{"app", "sys", "1t", "2t", "4t", "8t"},
	}
	abort12 := &Table{
		ID:     "fig12",
		Title:  "RTM abort distribution for STAMP (fractions of all aborts)",
		Header: []string{"app", "threads", "abort_rate", "confl/readcap", "writecap", "lock", "misc3", "misc5"},
	}
	threads := stampThreads(o)
	pad := func(vals []string) []string {
		for len(vals) < 4 {
			vals = append(vals, "-")
		}
		return vals
	}
	seeds := o.Seeds
	if seeds < 1 {
		seeds = 1
	}
	// One fan-out point per application: each point runs its own
	// sequential baseline plus every backend x thread-count x seed
	// combination on private simulator state, and returns finished rows.
	// Collection by app index keeps the tables byte-identical to a
	// sequential run.
	type appResult struct {
		timeRows, energyRows, abortRows [][]string
		errs                            []string
	}
	o.Obs.BeginExperiment("fig10")
	apps := stampApps(o)
	results := runner.Map(o.Jobs, len(apps), func(ai int) appResult {
		mk := apps[ai]
		var out appResult
		name := mk().Name()
		seqRes, err := stamp.RunOn(o.system(tm.Seq, ai, name+"/seq"), mk(), 1, 42)
		if err != nil {
			out.errs = append(out.errs, fmt.Sprintf("  ! %s sequential failed: %v", name, err))
			return out
		}
		for _, backend := range []tm.Backend{tm.HTM, tm.STM} {
			var tRow, eRow []string
			for _, n := range threads {
				// The paper averages over 10 runs and reports that bayes
				// and kmeans deviate significantly run to run; we average
				// over o.Seeds and flag noisy cells with a ± suffix.
				var tSample, eSample stats.Sample
				var last stamp.Result
				failed := false
				for s := 0; s < seeds; s++ {
					label := name + "/" + o.backendLabel(backend) + "/" + itoa(n) + "t/s" + itoa(s)
					res, err := stamp.RunOn(o.system(backend, ai, label), mk(), n, 42+uint64(97*s))
					if err != nil {
						out.errs = append(out.errs, fmt.Sprintf("  ! %s/%v/%d: %v", name, backend, n, err))
						failed = true
						break
					}
					tSample.Add(float64(res.Cycles) / float64(seqRes.Cycles))
					eSample.Add(res.EnergyJ / seqRes.EnergyJ)
					last = res
				}
				if failed {
					tRow = append(tRow, "ERR")
					eRow = append(eRow, "ERR")
					continue
				}
				cell := f2(tSample.Mean())
				if tSample.CV() > 0.1 {
					cell += "±" + f2(tSample.StdDev())
				}
				tRow = append(tRow, cell)
				eRow = append(eRow, f2(eSample.Mean()))
				if backend == tm.HTM {
					res := last
					total := float64(res.Aborts)
					frac := func(v uint64) string {
						if total == 0 {
							return "0"
						}
						return f3(float64(v) / total)
					}
					out.abortRows = append(out.abortRows, []string{
						name, itoa(n), f3(res.AbortRate),
						frac(res.ConflictOrReadCap), frac(res.WriteCapacity),
						frac(res.Lock), frac(res.Misc3), frac(res.Misc5)})
				}
			}
			out.timeRows = append(out.timeRows,
				append([]string{name, o.backendLabel(backend)}, pad(tRow)...))
			out.energyRows = append(out.energyRows,
				append([]string{name, o.backendLabel(backend)}, pad(eRow)...))
		}
		return out
	})
	for _, r := range results {
		for _, e := range r.errs {
			fmt.Fprintln(w, e)
		}
		addRows(time10, r.timeRows)
		addRows(energy11, r.energyRows)
		addRows(abort12, r.abortRows)
	}
	time10.Note("paper Fig.10: bayes/labyrinth/yada favour TinySTM; kmeans/ssca2 favour RTM;")
	time10.Note("genome/intruder/vacation comparable to 4 threads, TinySTM ahead at 8 (HT resource sharing)")
	energy11.Note("paper Fig.11: for big read-write/working-set apps (bayes, labyrinth, yada) energy decouples")
	energy11.Note("from performance: more threads burn more energy even when run time does not improve")
	abort12.Note("paper Fig.12: lock-abort share grows with threads; labyrinth dominated by write capacity;")
	abort12.Note("read-capacity aborts are reported merged with conflicts, as on the real hardware")
	Emit(w, o, time10)
	Emit(w, o, energy11)
	Emit(w, o, abort12)
}

// caseStudy renders a Table IV / Table V style base-vs-optimized
// comparison for one benchmark pair.
func caseStudy(w io.Writer, o Options, id, title, site string,
	mkBase, mkOpt func() stamp.Benchmark, optMod func(*tm.System),
	note ...string) {
	t := &Table{
		ID:    id,
		Title: title,
		Header: []string{"variant", "threads", "exec_Mcyc", "%reduc", "speedup",
			"cycles/tx", "abort_rate", "%capac", "%confl", "%other"},
	}
	threads := []int{1, 2, 4}
	if o.Scale == stamp.Test {
		threads = []int{1, 4}
	}
	type run struct {
		n   int
		res stamp.Result
	}
	// Fan out the base and optimized variants at every thread count as
	// independent points (each stamp.Run builds a private simulator);
	// results and error lines are assembled in point order afterwards.
	type runPoint struct {
		res stamp.Result
		err error
	}
	nt := len(threads)
	o.Obs.BeginExperiment(id)
	points := runner.Map(o.Jobs, 2*nt, func(i int) runPoint {
		mk, mod, variant := mkBase, (func(*tm.System))(nil), "base"
		if i >= nt {
			mk, mod, variant = mkOpt, optMod, "opt"
		}
		n := threads[i%nt]
		sys := o.system(tm.HTM, i, variant+"/"+itoa(n)+"t")
		if mod != nil {
			mod(sys)
		}
		res, err := stamp.RunOn(sys, mk(), n, 42)
		return runPoint{res, err}
	})
	collect := func(off int) []run {
		var out []run
		for j, n := range threads {
			p := points[off+j]
			if p.err != nil {
				fmt.Fprintf(w, "  ! %s/%d threads: %v\n", id, n, p.err)
				continue
			}
			out = append(out, run{n, p.res})
		}
		return out
	}
	baseRuns := collect(0)
	optRuns := collect(nt)
	baseAt := map[int]uint64{}
	for _, r := range baseRuns {
		baseAt[r.n] = r.res.Cycles
	}
	emitRows := func(name string, runs []run) {
		if len(runs) == 0 {
			return
		}
		oneThread := runs[0].res.Cycles
		for _, r := range runs {
			res := r.res
			reduc := "-"
			if name == "opt" && baseAt[r.n] > 0 {
				reduc = f2(100 * (1 - float64(res.Cycles)/float64(baseAt[r.n])))
			}
			spd := f2(float64(oneThread) / float64(res.Cycles))
			siteCyc := "-"
			if c := res.Counters["site:"+site+":commits"]; c > 0 {
				siteCyc = itoa(int(res.Counters["site:"+site+":cycles"] / c))
			}
			siteAborts := res.Counters["site:"+site+":aborts"]
			pct := func(causes ...string) string {
				if siteAborts == 0 {
					return "0"
				}
				var v uint64
				for _, cause := range causes {
					v += res.Counters["site:"+site+":abort."+cause]
				}
				return f2(float64(v) / float64(siteAborts))
			}
			t.AddRow(name, itoa(r.n), itoa(int(res.Cycles/1e6)), reduc, spd,
				siteCyc, f3(res.AbortRate),
				pct("write-capacity"),
				pct("conflict", "read-capacity"),
				pct("explicit", "interrupt", "page-fault", "nest-depth", "locked", "validation", "none"))
		}
	}
	emitRows("base", baseRuns)
	emitRows("opt", optRuns)
	for _, nt := range note {
		t.Note("%s", nt)
	}
	Emit(w, o, t)
}

// Table4 regenerates the intruder base-vs-optimized case study.
func Table4(w io.Writer, o Options) {
	caseStudy(w, o, "table4",
		"intruder: baseline vs optimized (prepend + deferred sort, §V-A)", "reassembly",
		func() stamp.Benchmark { return stamp.NewIntruder(o.Scale, false) },
		func() stamp.Benchmark { return stamp.NewIntruder(o.Scale, true) },
		nil,
		"paper Table IV: ~45-50% execution-time reduction, cycles/tx halved (~1800 -> ~900),",
		"abort rate roughly halved; capacity+conflict share of main-txn aborts drops sharply")
}

// Table5 regenerates the vacation base-vs-optimized case study.
func Table5(w io.Writer, o Options) {
	caseStudy(w, o, "table5",
		"vacation: baseline vs optimized (single lookups + prepend + pre-touch, §V-B)", "reserve",
		func() stamp.Benchmark { return stamp.NewVacation(o.Scale, false) },
		func() stamp.Benchmark { return stamp.NewVacation(o.Scale, true) },
		func(sys *tm.System) { sys.Heap.PreTouch = true },
		"paper Table V: ~25% execution-time reduction, transactions ~10-20% shorter,",
		"page-fault (misc3/HLE-unfriendly) aborts virtually eliminated by the pre-touching allocator")
}
