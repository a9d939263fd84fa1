// Package alloc is the simulated-heap memory allocator, modelled on
// STAMP's thread-local ("tl") allocator: each thread owns a pool that
// carves allocations out of chunks grabbed from a shared bump heap, with
// per-size free lists for reuse. Allocator metadata lives in Go (as STAMP's
// lives outside transactional tracking), so allocation inside transactions
// causes no TM conflicts — but the *pages* backing fresh chunks are marked
// untouched in the vm page table, so the first transactional access to new
// memory page-faults and aborts an RTM transaction (the effect the paper's
// vacation case study eliminates with a pre-touching allocator, enabled
// here with PreTouch).
package alloc

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/vm"
)

// HeapBase is the simulated address of the first heap byte. It leaves the
// low gigabyte for statically laid-out workload data.
const HeapBase uint64 = 1 << 30

// chunkWords is the pool refill size (64 KB).
const chunkWords = 8192

// allocCycles is the fast-path cost of one pool allocation.
const allocCycles = 24

// refillCycles is the cost of grabbing a fresh chunk from the heap.
const refillCycles = 400

// preTouchCyclesPerPage approximates one demand-fault's work done eagerly.
const preTouchCyclesPerPage = 600

// Heap is the shared bump allocator all pools draw from.
type Heap struct {
	pt  *vm.PageTable
	brk uint64

	// PreTouch, when set, touches the pages of every fresh chunk at
	// refill time (outside the transaction) instead of leaving them to
	// fault on first access.
	PreTouch bool
}

// NewHeap returns an empty heap. pt may be nil (no page-fault modelling).
func NewHeap(pt *vm.PageTable) *Heap {
	return &Heap{pt: pt, brk: HeapBase}
}

// shardProc is the slice of sim.Proc the heap needs to serialise growth
// under the epoch-sharded engine (declared here so alloc does not import
// sim).
type shardProc interface {
	ShardActive() bool
	Exclusive(fn func())
}

// Grow carves size bytes (rounded up to a page) from the heap and returns
// the base address. sink receives the time cost. The heap is shared state:
// when the sink is a shard worker in the parallel phase, the growth runs
// as an exclusive boundary op so allocation addresses are assigned in
// deterministic (cycle, thread) order regardless of shard count.
func (h *Heap) Grow(sink vm.CycleSink, size uint64) uint64 {
	if sp, ok := sink.(shardProc); ok && sp.ShardActive() {
		var base uint64
		sp.Exclusive(func() { base = h.grow(sink, size) })
		return base
	}
	return h.grow(sink, size)
}

func (h *Heap) grow(sink vm.CycleSink, size uint64) uint64 {
	size = (size + arch.PageSize - 1) &^ (arch.PageSize - 1)
	base := h.brk
	h.brk += size
	if sink != nil {
		sink.AddCycles(refillCycles)
	}
	if h.pt != nil {
		if h.PreTouch {
			if sink != nil {
				sink.AddCycles(preTouchCyclesPerPage * (size / arch.PageSize))
			}
			// Pages are resident immediately; nothing to mark.
		} else {
			h.pt.MarkFresh(base, size)
		}
	}
	return base
}

// Pool is a per-thread allocator front-end.
type Pool struct {
	heap *Heap
	cur  uint64
	end  uint64
	free map[int][]uint64 // size in words -> free addresses (LIFO)
}

// NewPool returns a fresh pool on the heap.
func (h *Heap) NewPool() *Pool {
	return &Pool{heap: h, free: make(map[int][]uint64)}
}

// Alloc returns the address of a block of nWords contiguous words. Like
// malloc, the contents are unspecified: fresh heap memory reads as zero,
// but reused blocks keep their previous contents — callers must initialise
// every field they read.
func (p *Pool) Alloc(sink vm.CycleSink, nWords int) uint64 {
	if nWords <= 0 {
		panic(fmt.Sprintf("alloc: bad size %d", nWords))
	}
	if sink != nil {
		sink.AddCycles(allocCycles)
	}
	if lst := p.free[nWords]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		p.free[nWords] = lst[:len(lst)-1]
		return addr
	}
	size := uint64(nWords) * arch.WordSize
	if size > chunkWords*arch.WordSize {
		// Large allocation: straight from the heap.
		return p.heap.Grow(sink, size)
	}
	if p.cur+size > p.end {
		p.cur = p.heap.Grow(sink, chunkWords*arch.WordSize)
		p.end = p.cur + chunkWords*arch.WordSize
	}
	addr := p.cur
	p.cur += size
	return addr
}

// AllocAligned returns a cache-line-aligned block of nWords words.
// Alignment holds because chunks are page-aligned and the cursor is
// rounded up to a line boundary first.
func (p *Pool) AllocAligned(sink vm.CycleSink, nWords int) uint64 {
	const lineWords = arch.LineSize / arch.WordSize
	// Round the bump cursor up; large allocations are page-aligned anyway.
	if nWords <= 0 {
		panic("alloc: bad size")
	}
	if uint64(nWords)*arch.WordSize <= chunkWords*arch.WordSize {
		pad := (lineWords - int(p.cur/arch.WordSize)%lineWords) % lineWords
		if p.cur+uint64(pad+nWords)*arch.WordSize > p.end {
			p.cur = p.heap.Grow(sink, chunkWords*arch.WordSize)
			p.end = p.cur + chunkWords*arch.WordSize
			pad = 0
		}
		p.cur += uint64(pad) * arch.WordSize
	}
	return p.Alloc(sink, nWords)
}

// Free returns a block to the pool's per-size free list.
func (p *Pool) Free(addr uint64, nWords int) {
	if nWords <= 0 {
		panic(fmt.Sprintf("alloc: bad size %d", nWords))
	}
	p.free[nWords] = append(p.free[nWords], addr)
}
