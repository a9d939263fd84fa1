// Package detsort provides deterministic iteration helpers for Go maps.
//
// Go randomizes map iteration order per range statement, which is exactly
// the kind of nondeterminism the simulator must keep out of anything that
// feeds experiment output (tables, traces, metrics sidecars): the paper's
// methodology rests on byte-identical repeated runs. Ranging over
// Keys(m) instead of m makes the iteration order a pure function of the
// map contents, so exporters and summaries stay reproducible at any -j.
//
// The rtmvet detnondet pass flags order-sensitive map ranges and its
// -fix mode rewrites them to range over Keys.
package detsort

import (
	"cmp"
	"slices"
)

// Keys returns the keys of m in ascending order. The result is freshly
// allocated; callers on hot paths should keep their own sorted index
// instead (see internal/lineset).
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
