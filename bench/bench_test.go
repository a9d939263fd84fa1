package main

import (
	"os"
	"path/filepath"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// TestDriverMatchesStampRun keeps the benchmark's STAMP driver from
// drifting from the harness: for every app at Test scale, on both TM
// backends, it must report what stamp.Run reports.
func TestDriverMatchesStampRun(t *testing.T) {
	const seed = 42
	for _, backend := range []tm.Backend{tm.HTM, tm.STM} {
		want := stamp.Registry(stamp.Test)
		for i, b := range stamp.Registry(stamp.Test) {
			ref, err := stamp.Run(want[i], backend, threads, seed, nil)
			if err != nil {
				t.Fatalf("stamp.Run %s/%v: %v", ref.Name, backend, err)
			}
			got, _, _, err := driveStamp(b, arch.Haswell(), backend, seed)
			if err != nil {
				t.Fatalf("driveStamp %s/%v: %v", b.Name(), backend, err)
			}
			type key struct{ Cycles, SetupCycles, Commits, Aborts, Starts, Instr uint64 }
			g := key{got.Cycles, got.SetupCycles, got.Commits, got.Aborts, got.Starts, got.Instr}
			r := key{ref.Cycles, ref.SetupCycles, ref.Commits, ref.Aborts, ref.Starts, ref.Instr}
			if g != r || got.EnergyJ != ref.EnergyJ {
				t.Errorf("%s/%v: driver %+v %gJ, stamp.Run %+v %gJ", b.Name(), backend, g, got.EnergyJ, r, ref.EnergyJ)
			}
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		n          int
		p, want    float64
		wantBeyond int
	}{
		{200, 50, 100, 100},
		{200, 90, 180, 20},
		{100, 90, 90, 10}, // the smallest n the benchmark reports p90 at
		{99, 90, 90, 9},
		{1, 90, 1, 0},
	} {
		s := xs[200-c.n:] // the values 1..n
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
		if got := beyond(len(s), c.p); got != c.wantBeyond {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.p, got, c.wantBeyond)
		}
	}
	// Python: statistics.median and statistics.quantiles(range(1, 11), n=4).
	ten := xs[190:]
	if got := median(ten); got != 5.5 {
		t.Errorf("median(1..10) = %g, want 5.5", got)
	}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles(1, 2, 3) = %g, %g, want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b            []float64
		higherBetter bool
		want         string
	}{
		{[]float64{100, 101, 99}, true, "unchanged"},
		{[]float64{120, 121, 119}, true, "better"},
		{[]float64{120, 121, 119}, false, "worse"},
		{[]float64{60, 100, 140}, true, "unresolved"},
	} {
		if got := verdict(base, c.b, 0.1, c.higherBetter); got != c.want {
			t.Errorf("verdict(%v, higherBetter=%v) = %s, want %s", c.b, c.higherBetter, got, c.want)
		}
	}
}

// TestFoldTop folds a pprof -top listing whose flat column sums to 100
// of 110 ms; the 10 ms it leaves out count as "other".
func TestFoldTop(t *testing.T) {
	f, err := os.Open("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := foldTop(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim": 5, "mem": 20, "lineset": 15, "htm": 10, "stm": 0, "tm": 10,
		"obs": 0, "workload": 5, "runtime": 30, "other": 15,
	}
	for l, ms := range want {
		if d := got[l] - ms/110; d > 1e-12 || d < -1e-12 {
			t.Errorf("layer %s: share %g, want %g", l, got[l], ms/110)
		}
	}
	if len(got) != len(layers) {
		t.Errorf("got %d layers, want %d", len(got), len(layers))
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"rtmlab/internal/mem.(*cache).lookup": "rtmlab/internal/mem",
		"rtmlab/internal/lineset.(*Table[go.shape.struct { rtmlab/internal/htm.readers uint32 }]).find (inline)": "rtmlab/internal/lineset",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
		"main.(*workload).play.func1":             "main",
		"[vdso]":                                  "",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}

// TestDigestStable plays each workload kind twice at Test scale. A round
// must reproduce its digest, and the epoch engine's must not depend on
// its host worker count.
func TestDigestStable(t *testing.T) {
	tmp := t.TempDir()
	play := func(w workload) string {
		t.Helper()
		r, err := w.play(7, stamp.Test, tmp, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range r.runs {
			if x.err != nil {
				t.Fatalf("%s: %v", w.name, x.err)
			}
		}
		return r.digest()
	}
	one := workload{name: "one-shard", backend: tm.HTM, shards: 1}
	two := workload{name: "two-shards", backend: tm.HTM, shards: 2}
	if a, b := play(one), play(two); a != b {
		t.Errorf("digest with 1 shard %s, with 2 shards %s", a, b)
	}
	eigen, err := lookupWorkload("eigen-traced")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := play(eigen), play(eigen); a != b {
		t.Errorf("eigen-traced digest changed between rounds: %s, %s", a, b)
	}
}

// TestSpecMetrics checks that BENCHMARK.json and the benchmark agree:
// every listed metric is computed, with the listed unit.
func TestSpecMetrics(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	r := round{runs: []run{{}}, wall: 1}
	plain := endToEnd([]round{r})
	if _, err := contractLine(plain, sp.EndToEnd); err != nil {
		t.Error(err)
	}
	if len(plain.Metrics) != len(sp.EndToEnd) {
		t.Errorf("benchmark computes %d end-to-end metrics, BENCHMARK.json lists %d", len(plain.Metrics), len(sp.EndToEnd))
	}
	traced := result{Metrics: layerMetrics([]round{r}, []round{r}, map[string]float64{}, 1, 1, runtimeDelta{})}
	if _, err := contractLine(traced, sp.PerLayer); err != nil {
		t.Error(err)
	}
	if len(traced.Metrics) != len(sp.PerLayer) {
		t.Errorf("benchmark computes %d per-layer metrics, BENCHMARK.json lists %d", len(traced.Metrics), len(sp.PerLayer))
	}
}
