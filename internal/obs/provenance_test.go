package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestTimingSidecarProvenance checks that the timing sidecar says what
// produced it: VCS stamp, Go version, host CPUs, CPU model and the flag
// set.
func TestTimingSidecarProvenance(t *testing.T) {
	c := NewCollector(0)
	c.SetRunConfig(2, 4096, "")
	flags := map[string]string{"shards": "2", "scale": "test"}
	c.SetFlags(flags)
	c.BeginExperiment("exp")
	r := c.Recorder(0, "p0")
	r.AdvanceBase(1000)
	r.AddWall(5e6)
	dir := t.TempDir()
	if err := c.WriteMetrics(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "exp.timing.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc TimingDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	p := doc.Provenance
	if p.GoVersion != runtime.Version() {
		t.Errorf("go_version %q, want %q", p.GoVersion, runtime.Version())
	}
	if p.NumCPU != runtime.NumCPU() || p.GOMAXPROCS < 1 {
		t.Errorf("nproc %d, gomaxprocs %d; want %d and >= 1", p.NumCPU, p.GOMAXPROCS, runtime.NumCPU())
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil && bytes.Contains(info, []byte("model name")) && p.CPUModel == "" {
		t.Error("cpu_model empty, but /proc/cpuinfo names a model")
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	_, hasRev := raw["vcs_revision"]
	_, hasMod := raw["vcs_modified"]
	if bi, ok := debug.ReadBuildInfo(); ok {
		if rev, mod := vcsStamp(bi.Settings); p.VCSRevision != rev || p.VCSModified != mod {
			t.Errorf("vcs %q modified %q, build info says %q and %q", p.VCSRevision, p.VCSModified, rev, mod)
		}
	}
	if !hasRev && hasMod {
		t.Errorf("vcs_modified %v written without a vcs_revision", raw["vcs_modified"])
	}
	if !reflect.DeepEqual(p.Flags, flags) {
		t.Errorf("flags %v, want %v", p.Flags, flags)
	}
	if doc.Shards != 2 || doc.EpochCycles != 4096 || len(doc.Points) != 1 {
		t.Errorf("engine config or points lost: %+v", doc)
	}
}

// TestVCSStamp checks that a build without a VCS stamp reports neither a
// revision nor a dirty flag, rather than a clean tree.
func TestVCSStamp(t *testing.T) {
	for _, tc := range []struct {
		settings []debug.BuildSetting
		rev, mod string
	}{
		{nil, "", ""},
		{[]debug.BuildSetting{{Key: "-buildmode", Value: "exe"}}, "", ""},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: "abc"}, {Key: "vcs.modified", Value: "false"}}, "abc", "false"},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: "def"}}, "def", "true"},
	} {
		if rev, mod := vcsStamp(tc.settings); rev != tc.rev || mod != tc.mod {
			t.Errorf("vcsStamp(%v) = %q, %q; want %q, %q", tc.settings, rev, mod, tc.rev, tc.mod)
		}
	}
	b, err := json.Marshal(Provenance{GoVersion: "go"})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("vcs_")) {
		t.Errorf("unstamped provenance writes VCS fields: %s", b)
	}
}
