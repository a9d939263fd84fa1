// Package perf provides a small named-counter registry modelled on the
// libpfm4 workflow the paper uses: components increment named events and
// the harness snapshots and tabulates them.
//
// The RTM event names follow the paper's libpfm4 spellings, e.g.
// "RTM_RETIRED:START", "RTM_RETIRED:ABORTED_MISC1".
package perf

// Set is a collection of named counters kept per hardware thread: each
// thread counts into its own map, and reads sum over the threads. The
// zero value is not usable; use NewSet. A thread's counts may be written
// only by one context at a time — under the sharded engine, its own
// shard worker during the parallel phase and the serial boundary
// otherwise — so threads that run concurrently never share a map.
type Set struct {
	m []map[string]uint64 // indexed by thread id
}

// NewSet returns an empty counter set for n hardware threads.
func NewSet(n int) *Set {
	s := &Set{m: make([]map[string]uint64, n)}
	for i := range s.m {
		s.m[i] = make(map[string]uint64)
	}
	return s
}

// Inc increments thread tid's count of a counter by one.
func (s *Set) Inc(tid int, name string) { s.m[tid][name]++ }

// Add increments thread tid's count of a counter by n.
func (s *Set) Add(tid int, name string, n uint64) { s.m[tid][name] += n }

// Get returns a counter summed over the threads (zero if never touched).
func (s *Set) Get(name string) uint64 {
	var n uint64
	for _, m := range s.m {
		n += m[name]
	}
	return n
}

// Snapshot returns a copy of the current values, summed over the threads.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	for _, m := range s.m {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// Intel RTM performance-counter names used throughout the harness (see
// Table III of the paper).
const (
	RTMStart        = "RTM_RETIRED:START"
	RTMCommit       = "RTM_RETIRED:COMMIT"
	RTMAborted      = "RTM_RETIRED:ABORTED"
	RTMAbortedMisc1 = "RTM_RETIRED:ABORTED_MISC1" // memory events: data conflicts & capacity
	RTMAbortedMisc2 = "RTM_RETIRED:ABORTED_MISC2" // uncommon conditions (always 0 in the paper)
	RTMAbortedMisc3 = "RTM_RETIRED:ABORTED_MISC3" // unsupported instructions, page faults
	RTMAbortedMisc4 = "RTM_RETIRED:ABORTED_MISC4" // incompatible memory types (HW erratum)
	RTMAbortedMisc5 = "RTM_RETIRED:ABORTED_MISC5" // none of the above, e.g. interrupts
)
