package vm

import (
	"testing"

	"rtmlab/internal/arch"
)

// BenchmarkServiceResident measures the check every non-transactional
// access and every new transactional write line pays: Touched and
// Service on a resident page while fresh pages are outstanding.
func BenchmarkServiceResident(b *testing.B) {
	pt := NewPageTable()
	pt.MarkFresh(1<<30, 256*arch.PageSize)
	var s sink
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i%64) * arch.PageSize
		if pt.Touched(addr) {
			pt.Service(&s, addr)
		}
	}
	if s.cycles != 0 {
		b.Fatal("resident page faulted")
	}
}
