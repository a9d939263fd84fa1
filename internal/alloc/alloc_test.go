package alloc

import (
	"testing"
	"testing/quick"

	"rtmlab/internal/arch"
	"rtmlab/internal/rng"
	"rtmlab/internal/vm"
)

type sink struct{ cycles uint64 }

func (s *sink) AddCycles(n uint64) { s.cycles += n }

func TestAllocDistinctAligned(t *testing.T) {
	h := NewHeap(nil)
	p := h.NewPool()
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		a := p.Alloc(nil, 3)
		if a%arch.WordSize != 0 {
			t.Fatalf("unaligned address %#x", a)
		}
		if a < HeapBase {
			t.Fatalf("address %#x below heap base", a)
		}
		if seen[a] {
			t.Fatalf("address %#x handed out twice", a)
		}
		seen[a] = true
	}
}

func TestAllocNoOverlap(t *testing.T) {
	f := func(seed uint64) bool {
		h := NewHeap(nil)
		p := h.NewPool()
		r := rng.New(seed)
		type blk struct {
			addr uint64
			n    int
		}
		var live []blk
		for i := 0; i < 300; i++ {
			n := 1 + r.Intn(20)
			a := p.Alloc(nil, n)
			for _, b := range live {
				if a < b.addr+uint64(b.n)*arch.WordSize && b.addr < a+uint64(n)*arch.WordSize {
					return false
				}
			}
			live = append(live, blk{a, n})
			if len(live) > 50 && r.Bool(0.5) {
				victim := r.Intn(len(live))
				p.Free(live[victim].addr, live[victim].n)
				live = append(live[:victim], live[victim+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeListReuse(t *testing.T) {
	h := NewHeap(nil)
	p := h.NewPool()
	a := p.Alloc(nil, 5)
	p.Free(a, 5)
	b := p.Alloc(nil, 5)
	if a != b {
		t.Fatalf("free block not reused: %#x vs %#x", a, b)
	}
	// Different size class must not reuse it.
	c := p.Alloc(nil, 6)
	if c == a {
		t.Fatal("wrong size class reused")
	}
}

func TestFreshPagesMarked(t *testing.T) {
	pt := vm.NewPageTable()
	h := NewHeap(pt)
	p := h.NewPool()
	for a, end := p.Alloc(nil, 10), p.end; a < end; a += arch.PageSize {
		if pt.Touched(a) {
			t.Fatalf("page at %#x of a fresh chunk not marked fresh", a)
		}
	}
}

func TestPreTouchLeavesPagesResident(t *testing.T) {
	pt := vm.NewPageTable()
	h := NewHeap(pt)
	h.PreTouch = true
	p := h.NewPool()
	var s sink
	a := p.Alloc(&s, 10)
	for pg := p.end - chunkWords*arch.WordSize; pg < p.end; pg += arch.PageSize {
		if !pt.Touched(pg) {
			t.Fatalf("pre-touch left the page at %#x fresh", pg)
		}
	}
	if !pt.Touched(a) {
		t.Fatal("allocated page not resident under pre-touch")
	}
	if s.cycles <= refillCycles {
		t.Fatal("pre-touch should cost extra cycles")
	}
}

func TestLargeAllocation(t *testing.T) {
	h := NewHeap(nil)
	p := h.NewPool()
	big := p.Alloc(nil, chunkWords*4)
	small := p.Alloc(nil, 2)
	if big == small {
		t.Fatal("overlap")
	}
	if big%arch.PageSize != 0 {
		t.Fatalf("large allocation not page aligned: %#x", big)
	}
}

func TestPoolsShareHeapWithoutOverlap(t *testing.T) {
	h := NewHeap(nil)
	p1, p2 := h.NewPool(), h.NewPool()
	seen := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		for _, p := range []*Pool{p1, p2} {
			a := p.Alloc(nil, 4)
			if seen[a] {
				t.Fatalf("cross-pool duplicate %#x", a)
			}
			seen[a] = true
		}
	}
}

func TestAllocPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHeap(nil).NewPool().Alloc(nil, 0)
}

func TestAllocCostCharged(t *testing.T) {
	h := NewHeap(nil)
	p := h.NewPool()
	var s sink
	p.Alloc(&s, 1)
	if s.cycles == 0 {
		t.Fatal("allocation charged no cycles")
	}
}

func TestAllocAligned(t *testing.T) {
	h := NewHeap(nil)
	p := h.NewPool()
	p.Alloc(nil, 3) // misalign the cursor
	for i := 0; i < 50; i++ {
		a := p.AllocAligned(nil, 1+i%7)
		if a%64 != 0 {
			t.Fatalf("AllocAligned returned %#x (not line aligned)", a)
		}
		p.Alloc(nil, 1+i%5) // keep perturbing alignment
	}
}

func TestAllocAlignedNoOverlap(t *testing.T) {
	h := NewHeap(nil)
	p := h.NewPool()
	type blk struct {
		addr uint64
		n    int
	}
	var blocks []blk
	for i := 0; i < 200; i++ {
		var a uint64
		n := 1 + i%9
		if i%3 == 0 {
			a = p.AllocAligned(nil, n)
		} else {
			a = p.Alloc(nil, n)
		}
		for _, b := range blocks {
			if a < b.addr+uint64(b.n)*arch.WordSize && b.addr < a+uint64(n)*arch.WordSize {
				t.Fatalf("overlap between %#x and %#x", a, b.addr)
			}
		}
		blocks = append(blocks, blk{a, n})
	}
}

func TestAllocAlignedAcrossChunkBoundary(t *testing.T) {
	h := NewHeap(nil)
	p := h.NewPool()
	// Exhaust most of a chunk, then request an aligned block that forces
	// a refill.
	p.Alloc(nil, chunkWords-2)
	a := p.AllocAligned(nil, 16)
	if a%64 != 0 {
		t.Fatalf("post-refill aligned alloc at %#x", a)
	}
}
