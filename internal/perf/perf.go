// Package perf provides a small named-counter registry modelled on the
// libpfm4 workflow the paper uses: components increment named events and
// the harness snapshots, subtracts and tabulates them.
//
// The RTM event names follow the paper's libpfm4 spellings, e.g.
// "RTM_RETIRED:START", "RTM_RETIRED:ABORTED_MISC1".
package perf

import "sort"

// Set is a collection of named counters. The zero value is not usable; use
// NewSet. Sets are not safe for concurrent use: simulated threads that
// run concurrently (the sharded engine's parallel phase) each count into
// a private staging set instead (see Stage).
type Set struct {
	m map[string]uint64
	// staged holds the per-thread staging sets, indexed by thread id
	// (nil until a thread is staged).
	staged []*Set
}

// NewSet returns an empty counter set.
func NewSet() *Set { return &Set{m: make(map[string]uint64)} }

// Inc increments a counter by one.
func (s *Set) Inc(name string) { s.m[name]++ }

// Add increments a counter by n.
func (s *Set) Add(name string, n uint64) { s.m[name] += n }

// Get returns the value of a counter (zero if never touched).
func (s *Set) Get(name string) uint64 { return s.m[name] }

// Snapshot returns a copy of the current values.
func (s *Set) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v
	}
	return out
}

// Sub returns the per-counter difference current - prev for every counter
// present in either.
func (s *Set) Sub(prev map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(s.m))
	for k, v := range s.m {
		out[k] = v - prev[k]
	}
	for k := range prev {
		if _, ok := s.m[k]; !ok {
			out[k] = 0 - prev[k]
		}
	}
	return out
}

// Stage gives thread tid, one of n, a private staging set, so that it
// can count while other threads run concurrently. MergeStaged folds the
// staging sets back into s.
func (s *Set) Stage(tid, n int) {
	if s.staged == nil {
		s.staged = make([]*Set, n)
	}
	if s.staged[tid] == nil {
		s.staged[tid] = NewSet()
	}
}

// For returns the set thread tid counts into: its staging set when
// staged, s itself otherwise.
//
//rtm:hot
func (s *Set) For(tid int, staged bool) *Set {
	if staged {
		return s.staged[tid]
	}
	return s
}

// MergeStaged folds every staging set into s and empties them. Call it
// once the staged threads have quiesced; additions commute, so the fold
// order cannot affect the result.
func (s *Set) MergeStaged() {
	for _, st := range s.staged {
		if st == nil {
			continue
		}
		for k, v := range st.m {
			s.m[k] += v
		}
		clear(st.m)
	}
}

// Reset zeroes every counter.
func (s *Set) Reset() {
	for k := range s.m {
		delete(s.m, k)
	}
}

// Names returns the counter names in sorted order.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.m))
	for k := range s.m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
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
