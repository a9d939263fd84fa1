package obs

import (
	"flag"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Provenance says what produced an artifact: the build, the host and the
// command line. Like the wall-clock it accompanies, it is host-side and
// lives only in the timing sidecar, outside the byte-identity guarantee.
type Provenance struct {
	// VCSRevision and VCSModified ("true" or "false") are empty, and left
	// out of the JSON, when the build carries no VCS stamp.
	VCSRevision string            `json:"vcs_revision,omitempty"`
	VCSModified string            `json:"vcs_modified,omitempty"`
	GoVersion   string            `json:"go_version"`
	NumCPU      int               `json:"nproc"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	CPUModel    string            `json:"cpu_model,omitempty"` // empty when /proc/cpuinfo is unreadable
	Flags       map[string]string `json:"flags,omitempty"`
}

// HostProvenance returns the build and host half of Provenance (Flags
// nil), read once per process: sidecars may be written many times in
// one run.
var HostProvenance = sync.OnceValue(func() Provenance {
	p := Provenance{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		p.VCSRevision, p.VCSModified = vcsStamp(bi.Settings)
	}
	return p
})

// vcsStamp returns the vcs.revision and vcs.modified build settings, ""
// for each one the build does not carry.
func vcsStamp(settings []debug.BuildSetting) (revision, modified string) {
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "vcs.modified":
			modified = s.Value
		}
	}
	return revision, modified
}

// FlagValues returns every flag of fs, set or not, as name to value.
func FlagValues(fs *flag.FlagSet) map[string]string {
	m := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}
