package main

import (
	"os"
	"strings"
	"testing"
)

// TestParseGolden runs the parser over a captured `go test -bench`
// transcript including the malformed lines the parser must skip: bare
// benchmark-name echoes, odd field counts, non-numeric iteration and
// value columns, and chatter lines.
func TestParseGolden(t *testing.T) {
	f, err := os.Open("testdata/bench.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bs, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	// 2 lineset results + 2 repeated htm results; all malformed lines
	// skipped.
	if len(bs) != 4 {
		for _, b := range bs {
			t.Logf("parsed: %s %s", b.Package, b.Name)
		}
		t.Fatalf("parsed %d benchmarks, want 4", len(bs))
	}
	if b := bs[0]; b != (Benchmark{"rtmlab/internal/lineset", "BenchmarkSetAddClear-8", 215.5}) {
		t.Errorf("first = %+v", b)
	}
	// Extra columns (B/op, allocs/op, custom metrics) are read past.
	if b := bs[2]; b != (Benchmark{"rtmlab/internal/htm", "BenchmarkCommitReadOnly-8", 1385}) {
		t.Errorf("custom-metric line = %+v", b)
	}
	for _, b := range bs {
		if strings.Contains(b.Name, "Bogus") || strings.Contains(b.Name, "OddFields") ||
			strings.Contains(b.Name, "BadValue") {
			t.Errorf("malformed line parsed as result: %+v", b)
		}
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	bad := []string{
		"BenchmarkBare",
		"BenchmarkShort-8 100",
		"BenchmarkOdd-8 100 12.0",
		"BenchmarkIters-8 abc 12.0 ns/op",
		"BenchmarkValue-8 100 twelve ns/op",
		"BenchmarkNoTime-8 100 0 B/op",
		"BenchmarkZero-8 100 0 ns/op",
	}
	for _, line := range bad {
		if _, ok := parseLine("p", line); ok {
			t.Errorf("parseLine accepted %q", line)
		}
	}
}

// pairs returns one file's results for benchmarks A and B over len(a)
// pairs, in the order perfgate.sh appends them: every benchmark of
// pair 1, then every benchmark of pair 2, and so on.
func pairs(a, b []float64) []Benchmark {
	var out []Benchmark
	for i := range a {
		out = append(out, Benchmark{"p", "BenchmarkA-2", a[i]}, Benchmark{"p", "BenchmarkB-2", b[i]})
	}
	return out
}

func TestCompareIdenticalPasses(t *testing.T) {
	base := pairs([]float64{100, 90, 110, 95, 105, 100}, []float64{50, 55, 45, 52, 48, 50})
	report, fail := compare(base, base, 10)
	if fail {
		t.Fatalf("identical input failed:\n%s", report)
	}
	if !strings.Contains(report, "gate: median pair geomean 1.000 over 6 pairs of 2 benchmarks (+0.0%)") {
		t.Errorf("want gate value exactly 1.000:\n%s", report)
	}
}

func TestCompareUniformSlowdownFails(t *testing.T) {
	a := []float64{100, 90, 110, 95, 105, 100}
	b := []float64{50, 55, 45, 52, 48, 50}
	slow := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[i] = v[i] * 1.5
		}
		return out
	}
	report, fail := compare(pairs(a, b), pairs(slow(a), slow(b)), 10)
	if !fail {
		t.Fatalf("×1.5 head passed:\n%s", report)
	}
	if !strings.Contains(report, "p.BenchmarkA") || !strings.Contains(report, "median head/base 1.500") {
		t.Errorf("per-benchmark median ratios missing:\n%s", report)
	}
}

// TestCompareMedianRejectsOnePair: a pair the host disturbed moves that
// pair's geomean far off, but the median of the pair scores holds.
func TestCompareMedianRejectsOnePair(t *testing.T) {
	base := pairs([]float64{100, 100, 100, 100, 100, 100}, []float64{50, 50, 50, 50, 50, 50})
	head := pairs([]float64{101, 300, 99, 102, 100, 98}, []float64{50, 150, 51, 49, 50, 52})
	report, fail := compare(base, head, 10)
	if fail {
		t.Fatalf("one noisy pair failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "pair 2: geomean head/base 3.000") {
		t.Errorf("the noisy pair is not reported:\n%s", report)
	}
}

func TestCompareTolerance(t *testing.T) {
	base := pairs([]float64{100, 100, 100}, []float64{100, 100, 100})
	head := pairs([]float64{104, 104, 104}, []float64{104, 104, 104})
	if report, fail := compare(base, head, 3); !fail {
		t.Errorf("+4%% passed a 3%% tolerance:\n%s", report)
	}
	if report, fail := compare(base, head, 5); fail {
		t.Errorf("+4%% failed a 5%% tolerance:\n%s", report)
	}
}

func TestCompareNothingSharedFails(t *testing.T) {
	base := []Benchmark{{"p", "BenchmarkOld-2", 100}}
	head := []Benchmark{{"p", "BenchmarkNew-2", 100}}
	report, fail := compare(base, head, 10)
	if !fail {
		t.Fatalf("no overlap passed:\n%s", report)
	}
	if !strings.Contains(report, "new:  p.BenchmarkNew") || !strings.Contains(report, "gone: p.BenchmarkOld") {
		t.Errorf("one-sided benchmarks not listed:\n%s", report)
	}
	if report, fail := compare(nil, nil, 10); !fail {
		t.Errorf("empty files passed:\n%s", report)
	}
}

func TestCompareMismatchedPairCountsFails(t *testing.T) {
	base := pairs([]float64{100, 100, 100}, []float64{50, 50, 50})
	head := pairs([]float64{100, 100}, []float64{50, 50})
	if report, fail := compare(base, head, 10); !fail {
		t.Fatalf("3 base pairs against 2 head pairs passed:\n%s", report)
	}
}

func TestCompareNewBenchmarkExcluded(t *testing.T) {
	base := pairs([]float64{100, 100, 100}, []float64{50, 50, 50})
	head := append(pairs([]float64{100, 100, 100}, []float64{50, 50, 50}),
		Benchmark{"p", "BenchmarkC-2", 1e9}, Benchmark{"p", "BenchmarkC-2", 1e9})
	report, fail := compare(base, head, 10)
	if fail {
		t.Fatalf("a head-only benchmark failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "new:  p.BenchmarkC") || !strings.Contains(report, "over 3 pairs of 2 benchmarks") {
		t.Errorf("head-only benchmark not reported as new and excluded:\n%s", report)
	}
}

// TestCompareAcrossCPUSuffix compares a 2-CPU run, whose names go test
// suffixes with -2, against a 1-CPU run without suffixes. Names that
// end in -1 on their own must keep it.
func TestCompareAcrossCPUSuffix(t *testing.T) {
	base := []Benchmark{
		{"p", "BenchmarkYieldHandoff", 100},
		{"p", "BenchmarkFig6Locality/0e-1", 100},
		{"p", "BenchmarkFig8Predominance/1e-1", 100},
	}
	head := []Benchmark{
		{"p", "BenchmarkYieldHandoff-2", 100},
		{"p", "BenchmarkFig6Locality/0e-1-2", 101},
		{"p", "BenchmarkFig8Predominance/1e-1-2", 99},
	}
	if got := cpuSuffix(base); got != "" {
		t.Errorf("cpuSuffix(1-CPU run) = %q, want none", got)
	}
	if got := cpuSuffix(head); got != "-2" {
		t.Errorf("cpuSuffix(2-CPU run) = %q, want -2", got)
	}
	for _, bs := range [][]Benchmark{base, head} {
		ns := runs(bs)
		for _, k := range []string{"p.BenchmarkYieldHandoff", "p.BenchmarkFig6Locality/0e-1", "p.BenchmarkFig8Predominance/1e-1"} {
			if _, ok := ns[k]; !ok {
				t.Errorf("runs keys %v lack %q", ns, k)
			}
		}
	}
	report, fail := compare(base, head, 2)
	if fail {
		t.Fatalf("unchanged timings across a CPU suffix failed:\n%s", report)
	}
	if !strings.Contains(report, "of 3 benchmarks") {
		t.Errorf("want all 3 benchmarks compared:\n%s", report)
	}
}
