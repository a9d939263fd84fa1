package vm

import (
	"testing"

	"rtmlab/internal/arch"
)

type sink struct{ cycles uint64 }

func (s *sink) AddCycles(n uint64) { s.cycles += n }

func TestFreshPagesFault(t *testing.T) {
	pt := NewPageTable()
	if !pt.Touched(0) {
		t.Fatal("unmapped addresses should be considered resident")
	}
	pt.MarkFresh(0, 3*arch.PageSize)
	if pt.fresh.Len() != 3 {
		t.Fatalf("fresh pages = %d, want 3", pt.fresh.Len())
	}
	if pt.Touched(arch.PageSize + 8) {
		t.Fatal("fresh page reported touched")
	}
	var s sink
	pt.Service(&s, arch.PageSize)
	if s.cycles != pt.FaultCycles {
		t.Fatalf("fault cost = %d", s.cycles)
	}
	if !pt.Touched(arch.PageSize) {
		t.Fatal("service did not make the page resident")
	}
	if pt.Faults != 1 {
		t.Fatalf("faults = %d", pt.Faults)
	}
	// Second access: no fault.
	pt.Service(&s, arch.PageSize+100)
	if s.cycles != pt.FaultCycles {
		t.Fatal("resident page faulted again")
	}
}

func TestMarkFreshPartialPage(t *testing.T) {
	pt := NewPageTable()
	pt.MarkFresh(arch.PageSize-8, 16) // straddles two pages
	if pt.fresh.Len() != 2 {
		t.Fatalf("fresh pages = %d, want 2", pt.fresh.Len())
	}
}

func TestTouchIdempotent(t *testing.T) {
	pt := NewPageTable()
	pt.MarkFresh(0, arch.PageSize)
	pt.Touch(8)
	pt.Touch(16)
	if pt.Faults != 1 {
		t.Fatalf("faults = %d, want 1", pt.Faults)
	}
}

func TestServiceNilSink(t *testing.T) {
	pt := NewPageTable()
	pt.MarkFresh(0, arch.PageSize)
	pt.Service(nil, 0) // must not panic
	if pt.fresh.Len() != 0 {
		t.Fatal("page not serviced")
	}
}
