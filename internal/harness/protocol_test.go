package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rtmlab/internal/stamp"
	"rtmlab/internal/stm"
	"rtmlab/internal/tm"
)

// TestProtocolStampDifferential runs a STAMP kernel under all three STM
// protocols and checks that each validates and completes the same
// input-determined set of atomic blocks. The protocols schedule, abort
// and retry differently (cycles and abort counts legitimately differ),
// but a committed result that depends on the protocol would be a
// serializability bug in one of them. Each protocol is additionally run
// on the epoch-synchronized engine at two shard counts: shard-count
// invariance must hold per protocol (exact, every field), and the
// sharded run must complete the same atomic blocks as the classic one.
func TestProtocolStampDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs genome at test scale under nine engine/protocol combinations")
	}
	run := func(proto string, shards int) (stamp.Result, error) {
		cfg := Options{Shards: shards, STMProtocol: proto}.Machine()
		return stamp.RunOn(tm.NewSystem(cfg, tm.STM), stamp.NewGenome(stamp.Test), 4, 42)
	}
	var doneBlocks []uint64
	for _, proto := range stm.Protocols() {
		classic, err := run(proto, 0)
		if err != nil {
			t.Fatalf("%s classic: %v", proto, err)
		}
		doneBlocks = append(doneBlocks, classic.Commits+classic.Fallbacks)

		s2, err := run(proto, 2)
		if err != nil {
			t.Fatalf("%s shards=2: %v", proto, err)
		}
		s4, err := run(proto, 4)
		if err != nil {
			t.Fatalf("%s shards=4: %v", proto, err)
		}
		if !reflect.DeepEqual(s2, s4) {
			t.Errorf("%s: results differ between shards=2 and shards=4:\n%+v\nvs\n%+v", proto, s2, s4)
		}
		if classicDone, shardedDone := classic.Commits+classic.Fallbacks, s2.Commits+s2.Fallbacks; classicDone != shardedDone {
			t.Errorf("%s: completed atomic blocks differ: classic %d vs sharded %d", proto, classicDone, shardedDone)
		}
	}
	for i, proto := range stm.Protocols() {
		if doneBlocks[i] != doneBlocks[0] {
			t.Errorf("completed atomic blocks differ across protocols: %s did %d, %s did %d",
				proto, doneBlocks[i], stm.Protocols()[0], doneBlocks[0])
		}
	}
}

// TestProtocolMatrixDeterminism pins the byte-identity contract for the
// non-default protocols: for each of tl2 and norec, the hybrid study —
// which exercises the STM backend directly and the hybrid fallback path,
// both of which resolve -stm-protocol — emits byte-identical tables and
// CSVs across -j {1,8} × -shards {1,4}, and separately across -j {1,8}
// on the classic engine. (Classic and sharded are distinct byte-identity
// classes: the engines schedule threads differently, so only shards >= 1
// are mutually identical.) The default protocol's matrix is pinned by
// the existing shard and runner determinism tests.
func TestProtocolMatrixDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hybrid study at test scale once per matrix cell")
	}
	run := func(proto string, shards, jobs int) (string, []byte) {
		t.Helper()
		dir := t.TempDir()
		o := Options{Scale: stamp.Test, Seeds: 1, OutDir: dir, Jobs: jobs,
			Shards: shards, STMProtocol: proto}
		var buf bytes.Buffer
		HybridStudy(&buf, o)
		csv, err := os.ReadFile(filepath.Join(dir, "hybrid.csv"))
		if err != nil {
			t.Fatalf("proto=%s shards=%d jobs=%d: %v", proto, shards, jobs, err)
		}
		return buf.String(), csv
	}
	for _, proto := range []string{stm.TL2Name, stm.NOrecName} {
		classicOut, classicCSV := run(proto, 0, 1)
		if !strings.Contains(classicOut, proto) {
			t.Errorf("%s output does not name the protocol:\n%s", proto, classicOut)
		}
		if strings.Contains(classicOut, stm.TinySTMName) {
			t.Errorf("%s output still carries the default label:\n%s", proto, classicOut)
		}
		if out, csv := run(proto, 0, 8); out != classicOut || !bytes.Equal(csv, classicCSV) {
			t.Errorf("%s hybrid output differs between -j 1 and -j 8 (classic engine):\n--- j1 ---\n%s--- j8 ---\n%s",
				proto, classicOut, out)
		}
		baseOut, baseCSV := run(proto, 1, 1)
		for _, cell := range []struct{ shards, jobs int }{{1, 8}, {4, 1}, {4, 8}} {
			out, csv := run(proto, cell.shards, cell.jobs)
			if out != baseOut {
				t.Errorf("%s hybrid output differs between (shards=1, j=1) and (shards=%d, j=%d):\n--- base ---\n%s--- got ---\n%s",
					proto, cell.shards, cell.jobs, baseOut, out)
			}
			if !bytes.Equal(csv, baseCSV) {
				t.Errorf("%s hybrid CSV differs at shards=%d jobs=%d", proto, cell.shards, cell.jobs)
			}
		}
	}
}

// TestBackendLabel pins the label resolution rule: the default keeps the
// historical "tinystm" label (so default output bytes never change), a
// selected protocol renames only the STM column, and non-STM backends
// are untouched.
func TestBackendLabel(t *testing.T) {
	var o Options
	if got := o.backendLabel(tm.STM); got != stm.TinySTMName {
		t.Errorf("default STM label = %q, want %q", got, stm.TinySTMName)
	}
	o.STMProtocol = stm.NOrecName
	if got := o.backendLabel(tm.STM); got != stm.NOrecName {
		t.Errorf("norec STM label = %q", got)
	}
	if got := o.backendLabel(tm.HTM); got != tm.HTM.String() {
		t.Errorf("HTM label = %q, want %q", got, tm.HTM.String())
	}
}
