package ds

// Heap is STAMP's binary heap (lib/heap.c), a min-heap on (key, data)
// pairs, used by yada's work queue of bad triangles.
//
// Layout: [capacity, size, key0, data0, key1, data1, ...].
type Heap struct {
	Base uint64
}

const (
	hCap  = 0
	hSize = 1
	hData = 2
)

// NewHeap allocates a heap with the given initial capacity.
func NewHeap(m Mem, al Allocator, capacity int) Heap {
	if capacity < 1 {
		capacity = 1
	}
	base := al.AllocAligned(hData + 2*capacity)
	m.Store(w(base, hCap), int64(capacity))
	m.Store(w(base, hSize), 0)
	return Heap{Base: base}
}

// Len returns the element count.
func (h Heap) Len(m Mem) int { return int(m.Load(w(h.Base, hSize))) }

func (h Heap) keyAt(m Mem, i int) int64  { return m.Load(w(h.Base, hData+2*i)) }
func (h Heap) dataAt(m Mem, i int) int64 { return m.Load(w(h.Base, hData+2*i+1)) }

func (h Heap) put(m Mem, i int, k, d int64) {
	m.Store(w(h.Base, hData+2*i), k)
	m.Store(w(h.Base, hData+2*i+1), d)
}

// Push inserts (key, data), growing storage if needed.
func (h *Heap) Push(m Mem, al Allocator, k, d int64) {
	capacity := int(m.Load(w(h.Base, hCap)))
	size := h.Len(m)
	if size == capacity {
		newCap := capacity * 2
		newBase := al.AllocAligned(hData + 2*newCap)
		m.Store(w(newBase, hCap), int64(newCap))
		m.Store(w(newBase, hSize), int64(size))
		for i := 0; i < 2*size; i++ {
			m.Store(w(newBase, hData+i), m.Load(w(h.Base, hData+i)))
		}
		al.Free(h.Base, hData+2*capacity)
		h.Base = newBase
	}
	// Sift up.
	i := size
	for i > 0 {
		p := (i - 1) / 2
		if h.keyAt(m, p) <= k {
			break
		}
		h.put(m, i, h.keyAt(m, p), h.dataAt(m, p))
		i = p
	}
	h.put(m, i, k, d)
	m.Store(w(h.Base, hSize), int64(size)+1)
}

// Pop removes and returns the minimum (key, data).
func (h Heap) Pop(m Mem) (k, d int64, ok bool) {
	size := h.Len(m)
	if size == 0 {
		return 0, 0, false
	}
	k, d = h.keyAt(m, 0), h.dataAt(m, 0)
	lk, ld := h.keyAt(m, size-1), h.dataAt(m, size-1)
	size--
	m.Store(w(h.Base, hSize), int64(size))
	// Sift down the former last element.
	i := 0
	for {
		c := 2*i + 1
		if c >= size {
			break
		}
		if c+1 < size && h.keyAt(m, c+1) < h.keyAt(m, c) {
			c++
		}
		if h.keyAt(m, c) >= lk {
			break
		}
		h.put(m, i, h.keyAt(m, c), h.dataAt(m, c))
		i = c
	}
	if size > 0 {
		h.put(m, i, lk, ld)
	}
	return k, d, true
}
