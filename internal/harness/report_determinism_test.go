package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
)

// TestReportDeterminismMatrix extends the byte-identity guarantee to the
// rtmreport observatory: the metrics sidecar, the rendered causal report
// (text and JSON) and the classic-vs-sharded run diff must be
// byte-identical for every combination of runner fan-out and shard count.
// Reports are pure functions of the sidecar bytes, so this pins both the
// sidecar (span/blame/latency content included) and the renderers
// (no map-iteration ordering leaks into the output).
func TestReportDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table4 at test scale once per matrix cell")
	}
	sidecar := func(jobs, shards int) []byte {
		t.Helper()
		col := obs.NewCollector(1 << 14)
		o := Options{Scale: stamp.Test, Seeds: 1, OutDir: t.TempDir(), Jobs: jobs,
			Shards: shards, Obs: col}
		Table4(io.Discard, o)
		dir := t.TempDir()
		if err := col.WriteMetrics(dir); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".json") && !strings.Contains(e.Name(), "timing") {
				data, err := os.ReadFile(filepath.Join(dir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
		}
		t.Fatal("no metrics sidecar written")
		return nil
	}
	render := func(data []byte) (text, js []byte) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, "m.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		doc, err := obs.ReadMetricsFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		obs.WriteReport(&buf, doc)
		js, err = obs.MarshalReportJSON(doc)
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), js
	}

	classic := map[int][]byte{1: sidecar(1, 0), 8: sidecar(8, 0)}
	if !bytes.Equal(classic[1], classic[8]) {
		t.Errorf("classic metrics sidecar differs between jobs=1 and jobs=8")
	}
	base := sidecar(1, 1)
	baseText, baseJSON := render(base)
	if len(baseText) == 0 || !bytes.Contains(baseText, []byte("latency: p50")) {
		t.Fatalf("report missing causal content:\n%s", baseText)
	}
	var baseDiff bytes.Buffer
	obs.WriteDiff(&baseDiff, diffBytes(t, classic[1], base))

	for _, shards := range []int{1, 4} {
		for _, jobs := range []int{1, 8} {
			if shards == 1 && jobs == 1 {
				continue
			}
			got := sidecar(jobs, shards)
			if !bytes.Equal(got, base) {
				t.Errorf("metrics sidecar differs at shards=%d jobs=%d", shards, jobs)
				continue
			}
			text, js := render(got)
			if !bytes.Equal(text, baseText) {
				t.Errorf("report text differs at shards=%d jobs=%d", shards, jobs)
			}
			if !bytes.Equal(js, baseJSON) {
				t.Errorf("report JSON differs at shards=%d jobs=%d", shards, jobs)
			}
			var diff bytes.Buffer
			obs.WriteDiff(&diff, diffBytes(t, classic[jobs], got))
			if !bytes.Equal(diff.Bytes(), baseDiff.Bytes()) {
				t.Errorf("diff output differs at shards=%d jobs=%d", shards, jobs)
			}
		}
	}

	// The ci.sh gate property: the two engines time threads differently
	// but run the same atomic blocks, so the classic-vs-sharded diff must
	// be semantically clean.
	d := diffBytes(t, classic[1], base)
	if d.SemanticMismatches != 0 {
		t.Errorf("classic vs sharded: %d semantic mismatches (commit counts must not move)",
			d.SemanticMismatches)
	}
}

func diffBytes(t *testing.T, a, b []byte) *obs.DiffDoc {
	t.Helper()
	dir := t.TempDir()
	pa, pb := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := os.WriteFile(pa, a, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, b, 0o644); err != nil {
		t.Fatal(err)
	}
	da, err := obs.ReadMetricsFile(pa)
	if err != nil {
		t.Fatal(err)
	}
	db, err := obs.ReadMetricsFile(pb)
	if err != nil {
		t.Fatal(err)
	}
	return obs.DiffMetrics(da, db, 10)
}
