// Package vm models the slice of virtual-memory behaviour that matters to
// RTM: whether a page has ever been touched. The first access to a fresh
// page raises a minor page fault; inside a hardware transaction the fault
// cannot be serviced, so the transaction aborts (MISC3 in the paper's
// taxonomy), the fault is serviced on the non-transactional path, and the
// retry succeeds. STAMP's thread-local allocator optimization (§V-B of the
// paper) maps to pre-touching pages at allocation time.
package vm

import (
	"rtmlab/internal/arch"
	"rtmlab/internal/lineset"
)

// DefaultFaultCycles is the cost of servicing a minor page fault.
const DefaultFaultCycles = 1500

// CycleSink receives the cost of servicing a fault (implemented by
// sim.Proc).
type CycleSink interface {
	AddCycles(n uint64)
}

// PageTable tracks which pages are resident. The zero value is not usable;
// use NewPageTable.
type PageTable struct {
	fresh       *lineset.Set // non-resident pages; resident is the common case
	FaultCycles uint64

	// Faults counts serviced minor faults.
	Faults uint64
}

// NewPageTable returns a page table where every page is initially
// resident except those explicitly marked fresh (so only allocator-grown
// memory faults, like a warmed-up process image).
func NewPageTable() *PageTable {
	return &PageTable{
		fresh:       lineset.NewSet(0),
		FaultCycles: DefaultFaultCycles,
	}
}

func pageOf(addr uint64) uint64 { return addr / arch.PageSize }

// Touched reports whether the page holding addr is resident.
func (pt *PageTable) Touched(addr uint64) bool {
	return !pt.fresh.Contains(pageOf(addr))
}

// Touch makes the page holding addr resident.
func (pt *PageTable) Touch(addr uint64) {
	if pt.fresh.Remove(pageOf(addr)) {
		pt.Faults++
	}
}

// MarkFresh marks the byte range [base, base+size) as untouched (newly
// mapped). The allocator calls this when it grows the heap.
func (pt *PageTable) MarkFresh(base, size uint64) {
	for pg := pageOf(base); pg <= pageOf(base+size-1); pg++ {
		pt.fresh.Add(pg)
	}
}

// Service handles a potential fault at addr on the non-transactional path:
// if the page is fresh the fault cost is charged to sink and the page
// becomes resident.
func (pt *PageTable) Service(sink CycleSink, addr uint64) {
	if pt.fresh.Remove(pageOf(addr)) {
		pt.Faults++
		if sink != nil {
			sink.AddCycles(pt.FaultCycles)
		}
	}
}
