// Command benchcmp gates a change's `go test -bench` results against a
// base revision's results taken on the same host:
//
//	benchcmp [-tol-pct 10] base.txt head.txt
//
// scripts/perfgate.sh writes the two files by running the base and head
// test binaries in interleaved pairs, appending each side's output to
// its own file. The k-th result of a benchmark in each file forms pair
// k. A pair's score is the geomean of the head/base ns/op ratios over
// the benchmarks both files hold, and the gate value is the median of
// the pair scores: the geomean lets independent per-benchmark noise
// cancel, and the median lets one pair disturbed by the host not decide
// the verdict. The report lists every pair's geomean and every
// benchmark's median ratio, so a failed gate can be traced to a
// benchmark; benchmarks in one file only are listed as new or gone and
// left out of the score.
//
// benchcmp exits 1 when the gate value exceeds 1 + tol-pct/100, and also
// when no benchmark is in both files or a benchmark has a different
// number of results in each, since a gate that compares nothing must not
// pass.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"rtmlab/internal/detsort"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Package string
	Name    string
	NsPerOp float64
}

func main() {
	tolPct := flag.Float64("tol-pct", 10, "allowed regression of the median pair geomean, in percent")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-tol-pct N] base.txt head.txt")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	var sides [2][]Benchmark
	for i, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %v\n", err)
			os.Exit(1)
		}
		sides[i], err = parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchcmp: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	report, fail := compare(sides[0], sides[1], *tolPct)
	fmt.Print(report)
	if fail {
		os.Exit(1)
	}
}

// parse consumes `go test -bench` output and returns its results in
// order. Non-result lines (test chatter, bare benchmark names echoed
// before their result, malformed columns) are skipped.
func parse(r io.Reader) ([]Benchmark, error) {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(pkg, line); ok {
				out = append(out, b)
			}
		}
	}
	return out, sc.Err()
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8  1234  56.7 ns/op  0 B/op  0 allocs/op  1.5 speedup
//
// into a Benchmark. Lines that don't look like results (e.g. a bare
// "BenchmarkX" name echoed before its result) or carry no positive
// ns/op are rejected.
func parseLine(pkg, line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, false
	}
	if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Package: pkg, Name: f[0]}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		if f[i+1] == "ns/op" {
			b.NsPerOp = v
		}
	}
	return b, b.NsPerOp > 0
}

// cpuSuffix returns the "-N" that go test appended to every result name
// in bs (N is GOMAXPROCS; go test omits it on a 1-CPU host), or "" when
// the names do not all end in the same one. A suffix on only some names
// is part of those names: BenchmarkFig6Locality/0e-1 ends in -1 on its
// own.
func cpuSuffix(bs []Benchmark) string {
	sfx := ""
	for i, b := range bs {
		j := strings.LastIndexByte(b.Name, '-')
		if j < 0 {
			return ""
		}
		if _, err := strconv.ParseUint(b.Name[j+1:], 10, 64); err != nil {
			return ""
		}
		if i > 0 && b.Name[j:] != sfx {
			return ""
		}
		sfx = b.Name[j:]
	}
	return sfx
}

// runs groups each benchmark's ns/op results in file order, keyed by
// package and name without the file's cpuSuffix, so files taken at
// different GOMAXPROCS compare.
func runs(bs []Benchmark) map[string][]float64 {
	out := map[string][]float64{}
	sfx := cpuSuffix(bs)
	for _, b := range bs {
		key := b.Package + "." + strings.TrimSuffix(b.Name, sfx)
		out[key] = append(out[key], b.NsPerOp)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare reports the paired head/base comparison and whether the gate
// fails at tolPct percent.
func compare(base, head []Benchmark, tolPct float64) (string, bool) {
	baseNs, headNs := runs(base), runs(head)
	var sb strings.Builder
	var shared []string
	for _, k := range detsort.Keys(headNs) {
		if _, ok := baseNs[k]; ok {
			shared = append(shared, k)
		} else {
			fmt.Fprintf(&sb, "new:  %s\n", k)
		}
	}
	for _, k := range detsort.Keys(baseNs) {
		if _, ok := headNs[k]; !ok {
			fmt.Fprintf(&sb, "gone: %s\n", k)
		}
	}
	if len(shared) == 0 {
		sb.WriteString("FAIL: no benchmark in both files\n")
		return sb.String(), true
	}

	// logSum[k] and logN[k] accumulate pair k's log ratios.
	var logSum []float64
	var logN []int
	mismatch := false
	for _, k := range shared {
		b, h := baseNs[k], headNs[k]
		if len(b) != len(h) {
			fmt.Fprintf(&sb, "FAIL: %s has %d base results but %d head results\n", k, len(b), len(h))
			mismatch = true
			continue
		}
		ratios := make([]float64, len(b))
		for i := range b {
			ratios[i] = h[i] / b[i]
			if i == len(logSum) {
				logSum, logN = append(logSum, 0), append(logN, 0)
			}
			logSum[i] += math.Log(ratios[i])
			logN[i]++
		}
		fmt.Fprintf(&sb, "%-60s median head/base %.3f over %d pairs\n", k, median(ratios), len(ratios))
	}
	if mismatch {
		sb.WriteString("FAIL: the two files hold different numbers of pairs\n")
		return sb.String(), true
	}

	scores := make([]float64, len(logSum))
	for i := range logSum {
		scores[i] = math.Exp(logSum[i] / float64(logN[i]))
		fmt.Fprintf(&sb, "pair %d: geomean head/base %.3f over %d benchmarks\n", i+1, scores[i], logN[i])
	}
	gate := median(scores)
	fmt.Fprintf(&sb, "gate: median pair geomean %.3f over %d pairs of %d benchmarks (%+.1f%%)\n",
		gate, len(scores), len(shared), (gate-1)*100)
	if gate > 1+tolPct/100 {
		fmt.Fprintf(&sb, "FAIL: regression beyond %.1f%% tolerance\n", tolPct)
		return sb.String(), true
	}
	fmt.Fprintf(&sb, "ok: within %.1f%% tolerance\n", tolPct)
	return sb.String(), false
}
