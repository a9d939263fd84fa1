// Package mem implements the simulated memory system: a word-addressable
// backing store plus a Haswell-like cache hierarchy (private L1D and L2 per
// core, shared inclusive L3) with directory-based MESI coherence and LRU
// replacement.
//
// Design notes:
//
//   - Data lives only in the flat backing store. Caches track presence and
//     coherence state for timing and for the eviction/invalidation events
//     that the HTM model turns into transaction aborts; they do not hold
//     copies of the data. This is sound because the simulation engine runs
//     exactly one hardware thread at a time and the TM layers (undo log /
//     write buffer) guarantee that speculative values are never visible to
//     other threads.
//   - Coherence state is centralised in the L3 directory entry of each line
//     (owner core for M, sharer set for S/E). Only the L3 keeps directory
//     entries; the private L1/L2 are pure presence/recency filters: tags
//     plus one packed recency word per set (see cache).
//   - All methods are single-threaded by construction (the engine
//     serialises simulated threads), so the package uses no locks.
package mem

import "rtmlab/internal/arch"

const lineShift = 6 // log2(arch.LineSize)

// LineAddr returns the cache-line address (addr / 64) of a byte address.
func LineAddr(addr uint64) uint64 { return addr >> lineShift }

// Memory is the word-granular backing store. Pages hang off a two-level
// radix structure — a map of page directories, each covering dirSize
// contiguous pages (4 MB of address space) — and are allocated lazily so
// that sparse multi-hundred-megabyte address spaces stay cheap. Two
// single-entry memos make the common cases O(1) without hashing: the
// last page resolved (repeat-page accesses) and the last directory
// (random accesses inside a working set, which rarely leave one 4 MB
// directory span).
type Memory struct {
	dirs     map[uint64]*pageDir
	lastDN   uint64
	lastDir  *pageDir
	lastPN   uint64
	lastPage *[wordsPerPage]int64
}

const (
	pageShift    = 12 // 4 KB pages
	wordsPerPage = arch.PageSize / arch.WordSize
	dirShift     = 10 // pages per directory: 1024 (4 MB of address space)
	dirSize      = 1 << dirShift
	dirMask      = dirSize - 1
)

type pageDir = [dirSize]*[wordsPerPage]int64

// NewMemory returns an empty backing store.
func NewMemory() *Memory {
	return &Memory{dirs: make(map[uint64]*pageDir)}
}

func wordIndex(addr uint64) uint64 { return (addr % arch.PageSize) / arch.WordSize }

// page resolves addr's page through the last-page and last-directory
// memos, falling back to one map lookup per directory transition. With
// allocate set, missing structures are materialised; otherwise nil is
// returned for untouched pages.
func (m *Memory) page(addr uint64, allocate bool) *[wordsPerPage]int64 {
	pn := addr >> pageShift
	if p := m.lastPage; p != nil && pn == m.lastPN {
		return p
	}
	dn := pn >> dirShift
	dir := m.lastDir
	if dir == nil || dn != m.lastDN {
		dir = m.dirs[dn]
		if dir == nil {
			if !allocate {
				return nil
			}
			dir = new(pageDir)
			m.dirs[dn] = dir
		}
		m.lastDN, m.lastDir = dn, dir
	}
	p := dir[pn&dirMask]
	if p == nil {
		if !allocate {
			return nil
		}
		p = new([wordsPerPage]int64)
		dir[pn&dirMask] = p
	}
	m.lastPN, m.lastPage = pn, p
	return p
}

// Read returns the word stored at addr (which must be word-aligned).
func (m *Memory) Read(addr uint64) int64 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[wordIndex(addr)]
}

// Write stores val at the word-aligned address addr.
func (m *Memory) Write(addr uint64, val int64) {
	m.page(addr, true)[wordIndex(addr)] = val
}

// PagesIn counts the materialised pages intersecting the address range
// [lo, hi) — diagnostics, e.g. proving an STM protocol never touches the
// lock-array range. The scan walks page numbers in address order (never
// map order), so it is deterministic.
func (m *Memory) PagesIn(lo, hi uint64) int {
	if hi <= lo {
		return 0
	}
	n := 0
	for pn := lo >> pageShift; pn <= (hi-1)>>pageShift; pn++ {
		if m.page(pn<<pageShift, false) != nil {
			n++
		}
	}
	return n
}
