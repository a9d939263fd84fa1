package harness

import (
	"fmt"
	"io"

	"rtmlab/internal/runner"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// HybridStudy quantifies the paper's closing recommendation —
// "carefully avoiding unnecessary serialization in such [fallback
// runtimes] is essential" — by re-running the fallback-bound STAMP
// applications with the software (TinySTM) fallback instead of
// Algorithm 1's global lock. Overflowing transactions then run
// concurrently instead of serialising.
func HybridStudy(w io.Writer, o Options) {
	t := &Table{
		ID:    "hybrid",
		Title: "Algorithm-1 lock fallback vs hybrid TinySTM fallback (normalized time, 4 threads)",
		Header: []string{"app", "rtm+lock", "rtm+stm", o.backendLabel(tm.STM),
			"lock_fallbacks", "stm_fallbacks"},
	}
	apps := []func() stamp.Benchmark{
		func() stamp.Benchmark { return stamp.NewLabyrinth(o.Scale) },
		func() stamp.Benchmark { return stamp.NewYada(o.Scale) },
		func() stamp.Benchmark { return stamp.NewVacation(o.Scale, false) },
		func() stamp.Benchmark { return stamp.NewIntruder(o.Scale, false) },
	}
	type pointOut struct {
		row  []string
		note string
	}
	o.Obs.BeginExperiment("hybrid")
	outs := runner.Map(o.Jobs, len(apps), func(i int) pointOut {
		mk := apps[i]
		name := mk().Name()
		seq, err := stamp.RunOn(o.system(tm.Seq, i, name+"/seq"), mk(), 1, 42)
		if err != nil {
			return pointOut{note: fmt.Sprintf("%s seq failed: %v", name, err)}
		}
		norm := func(backend tm.Backend) (string, stamp.Result) {
			res, err := stamp.RunOn(o.system(backend, i, name+"/"+o.backendLabel(backend)), mk(), 4, 42)
			if err != nil {
				return "ERR", res
			}
			return f2(float64(res.Cycles) / float64(seq.Cycles)), res
		}
		lockN, lockRes := norm(tm.HTM)
		hybN, hybRes := norm(tm.Hybrid)
		stmN, _ := norm(tm.STM)
		return pointOut{row: []string{name, lockN, hybN, stmN,
			itoa(int(lockRes.Fallbacks)),
			itoa(int(hybRes.Counters["tm:hybrid.fallback"]))}}
	})
	for _, p := range outs {
		if p.note != "" {
			t.Note("%s", p.note)
			continue
		}
		t.AddRow(p.row...)
	}
	t.Note("labyrinth is the acid test: every routing transaction overflows, so the lock")
	t.Note("fallback serialises the whole application while the software fallback keeps routing")
	t.Note("transactions concurrent (paper's conclusion, quantified)")
	Emit(w, o, t)
}
