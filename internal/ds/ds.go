// Package ds provides the transactional data structures the STAMP ports
// are built from — queue, sorted list, red-black tree, chained hash table,
// binary heap and bitmap — all laid out in simulated memory and
// accessed through a Mem interface, exactly as STAMP's C structures are
// accessed through the TM_SHARED_READ/WRITE macros.
//
// Every structure can therefore be used sequentially (tm.Ctx), under a
// global lock, under TinySTM or inside hardware transactions (tm.Tx)
// without code changes, and its cache/transactional footprint is the real
// footprint of the pointer-chasing layout.
package ds

import "rtmlab/internal/arch"

// Mem is the word-access interface (satisfied by tm.Tx and tm.Ctx).
type Mem interface {
	Load(addr uint64) int64
	Store(addr uint64, val int64)
}

// Allocator carves blocks out of the simulated heap (satisfied by tm.Ctx).
type Allocator interface {
	Alloc(nWords int) uint64
	// AllocAligned returns a cache-line-aligned block. Structure *headers*
	// (queue head/tail words, tree roots) are allocated this way so that
	// two unrelated hot headers never share a line — line-granularity
	// conflict detection would otherwise couple them (false sharing the C
	// originals avoid through malloc padding).
	AllocAligned(nWords int) uint64
	Free(addr uint64, nWords int)
}

// w returns the address of the i-th word after base.
func w(base uint64, i int) uint64 { return base + uint64(i)*arch.WordSize }

// a2i converts a simulated address to a stored word and back. Addresses
// are stored in structure fields as plain int64 words.
func a2i(a uint64) int64 { return int64(a) }
func i2a(v int64) uint64 { return uint64(v) }
