package ds

// Bitmap is STAMP's bitmap (lib/bitmap.c): n bits packed into words.
//
// Layout: [nBits, word0, word1, ...].
type Bitmap struct {
	Base uint64
}

const (
	bmN    = 0
	bmData = 1
)

// NewBitmap allocates a bitmap of n bits, all clear.
func NewBitmap(m Mem, al Allocator, n int) Bitmap {
	words := (n + 63) / 64
	if words < 1 {
		words = 1
	}
	base := al.AllocAligned(bmData + words)
	m.Store(w(base, bmN), int64(n))
	for i := 0; i < words; i++ {
		m.Store(w(base, bmData+i), 0)
	}
	return Bitmap{Base: base}
}

// Test reports whether bit i is set.
func (b Bitmap) Test(m Mem, i int) bool {
	word := m.Load(w(b.Base, bmData+i/64))
	return word&(1<<uint(i%64)) != 0
}

// Set sets bit i, reporting whether it was previously clear.
func (b Bitmap) Set(m Mem, i int) bool {
	addr := w(b.Base, bmData+i/64)
	word := m.Load(addr)
	mask := int64(1) << uint(i%64)
	if word&mask != 0 {
		return false
	}
	m.Store(addr, word|mask)
	return true
}
