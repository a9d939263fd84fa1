// Package detfix exercises the detnondet pass.
//
//rtmvet:deterministic
package detfix

import (
	"fmt"

	"rtmlab/internal/analysis/testdata/src/crosshelper"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func clock() int64 {
	return time.Now().UnixNano() // want `time\.Now`
}

func sinceStart(t0 time.Time) time.Duration {
	return time.Since(t0) // want `time\.Since`
}

func globalRand() int {
	return rand.Intn(8) // want `math/rand`
}

func seededRandOK() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

func seededRandMethodOK() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(8)
}

func envBranch() int {
	if os.Getenv("RTMLAB_FAST") != "" { // want `os\.Getenv`
		return 1
	}
	mode := os.Getenv("MODE")
	if mode == "x" { // want `os\.Getenv`
		return 2
	}
	return 0
}

func hostBranch() int {
	if runtime.NumCPU() > 4 { // want `branch depends on os.Getenv`
		return 1
	}
	return 0
}

func gid() int {
	return runtime.NumGoroutine() // want `goroutine`
}

func mapAppendUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m { // want `never sorted`
		keys = append(keys, k)
	}
	return keys
}

func mapAppendSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mapAppendSortedOuterOK(m map[string]map[string]int) []string {
	var keys []string
	for _, inner := range m {
		for k := range inner {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func mapBuilder(m map[string]int, sb *strings.Builder) {
	for k := range m {
		sb.WriteString(k) // want `Builder`
	}
}

func mapPrint(m map[string]int, w *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `formatted output`
	}
}

func mapToMapOK(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func mapSumOK(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func rangeOverCallOK(produce func() map[string]int) int {
	n := 0
	for range produce() {
		n++
	}
	return n
}

func suppressedOK(m map[string]int) []string {
	var keys []string
	//rtmvet:ignore single-key map by construction; order cannot vary
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// Interprocedural taint: nondeterminism buried in a module-internal
// helper outside the deterministic scope is reported at the call site.

func crossClock() int64 {
	return crosshelper.Stamp() // want `reaches a wall-clock source outside the deterministic scope`
}

func crossRand() int {
	return crosshelper.Jitter() // want `reaches a global randomness source`
}

func crossRandDeep() int {
	return crosshelper.JitterDeep() // want `reaches a global randomness source`
}

func crossEnvBranch() string {
	if crosshelper.Flag() { // want `branch depends on os.Getenv`
		return "a"
	}
	return "b"
}

func crossEnvTaint() string {
	mode := crosshelper.Flag()
	if mode { // want `branch depends on os.Getenv`
		return "a"
	}
	return "b"
}

func crossPureOK() int {
	return crosshelper.Pure(1, 2)
}
