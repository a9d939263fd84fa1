package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/eigenbench"
	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/tm"
)

// TestFig3ParallelDeterminism asserts the runner's core guarantee: a
// representative figure produces byte-identical tables and CSVs whether
// the points run sequentially (-j 1) or on 8 workers. Results are
// collected by point index, and every point owns its simulator, so
// worker count must never leak into the output.
func TestFig3ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fig3 at test scale")
	}
	run := func(jobs int) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		o := Options{Scale: stamp.Test, Seeds: 1, OutDir: dir, Jobs: jobs}
		var buf bytes.Buffer
		Fig3(&buf, o)
		csv, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return buf.String(), csv
	}
	seqOut, seqCSV := run(1)
	parOut, parCSV := run(8)
	if seqOut != parOut {
		t.Errorf("fig3 table differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", seqOut, parOut)
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("fig3 CSV differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", seqCSV, parCSV)
	}
}

// TestClaimsParallelDeterminism asserts that the claims experiment —
// which exercises HTM, STM, capacity probes and STAMP in one sweep, and
// therefore every open-addressed metadata container on its hot path —
// emits byte-identical tables and CSVs at -j 1 and -j 8. Hash-table
// layout or iteration order leaking into simulated state would show up
// here.
func TestClaimsParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full claims sweep at test scale")
	}
	run := func(jobs int) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		o := Options{Scale: stamp.Test, Seeds: 1, OutDir: dir, Jobs: jobs}
		var buf bytes.Buffer
		Claims(&buf, o)
		csv, err := os.ReadFile(filepath.Join(dir, "claims.csv"))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return buf.String(), csv
	}
	seqOut, seqCSV := run(1)
	parOut, parCSV := run(8)
	if seqOut != parOut {
		t.Errorf("claims table differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", seqOut, parOut)
	}
	if !bytes.Equal(seqCSV, parCSV) {
		t.Errorf("claims CSV differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", seqCSV, parCSV)
	}
}

// TestObsTraceParallelDeterminism asserts that the flight-recorder
// outputs — the Chrome trace-event JSON and the per-experiment metrics
// sidecar — are byte-identical between -j 1 and -j 8 on a small claims
// run. Recorders register in completion order under the worker pool, so
// this pins the (experiment, point, sub)-keyed merge that makes that
// order invisible.
func TestObsTraceParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full claims sweep at test scale, twice")
	}
	run := func(jobs int) (trace, metrics, summary []byte) {
		t.Helper()
		col := obs.NewCollector(1 << 14)
		col.Rings = true
		o := Options{Scale: stamp.Test, Seeds: 1, Jobs: jobs, Obs: col}
		Claims(io.Discard, o)
		var tb bytes.Buffer
		if err := col.WriteChromeTrace(&tb); err != nil {
			t.Fatalf("jobs=%d: trace: %v", jobs, err)
		}
		dir := t.TempDir()
		if err := col.WriteMetrics(dir); err != nil {
			t.Fatalf("jobs=%d: metrics: %v", jobs, err)
		}
		mj, err := os.ReadFile(filepath.Join(dir, "claims.json"))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		mt, err := os.ReadFile(filepath.Join(dir, "claims.txt"))
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return tb.Bytes(), mj, mt
	}
	seqTrace, seqJSON, seqTxt := run(1)
	parTrace, parJSON, parTxt := run(8)
	if !json.Valid(seqTrace) {
		t.Fatal("trace output is not valid JSON")
	}
	if !json.Valid(seqJSON) {
		t.Fatal("metrics sidecar is not valid JSON")
	}
	if !bytes.Equal(seqTrace, parTrace) {
		t.Error("Chrome trace differs between -j 1 and -j 8")
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Errorf("metrics JSON differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", seqJSON, parJSON)
	}
	if !bytes.Equal(seqTxt, parTxt) {
		t.Error("metrics text summary differs between -j 1 and -j 8")
	}
}

// TestPointDeterminismUnderFastPaths asserts that repeated same-seed runs
// of a single experiment point yield identical cycle/energy/abort
// numbers — the memoized cache/page fast paths and the replace-min
// scheduler handoff must be timing-neutral.
func TestPointDeterminismUnderFastPaths(t *testing.T) {
	p := eigenbench.Default(16 << 10)
	p.Loops = 60
	for _, backend := range []tm.Backend{tm.HTM, tm.STM} {
		r1 := eigenbench.Run(tm.NewSystem(arch.Haswell(), backend), p, 7)
		r2 := eigenbench.Run(tm.NewSystem(arch.Haswell(), backend), p, 7)
		if r1.Cycles != r2.Cycles || r1.Aborts != r2.Aborts ||
			r1.Instr != r2.Instr || r1.EnergyJ != r2.EnergyJ {
			t.Errorf("%v: same-seed runs diverge: %+v vs %+v", backend, r1, r2)
		}
	}
}
