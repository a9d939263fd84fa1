package ds

// HashTable is STAMP's chained hash table (lib/hashtable.c) with a fixed
// bucket count, mapping int64 keys to int64 data. Each bucket is a sorted
// ds.List.
//
// Layout: [nBuckets, bucketHead0, bucketHead1, ...] where each bucket head
// is the sentinel node address of a List.
type HashTable struct {
	Base     uint64
	nBuckets int
}

const (
	htN    = 0
	htData = 1
)

// NewHashTable allocates a table with nBuckets chains.
func NewHashTable(m Mem, al Allocator, nBuckets int) HashTable {
	if nBuckets < 1 {
		nBuckets = 1
	}
	base := al.AllocAligned(htData + nBuckets)
	m.Store(w(base, htN), int64(nBuckets))
	for i := 0; i < nBuckets; i++ {
		l := NewList(m, al)
		m.Store(w(base, htData+i), a2i(l.Head))
	}
	return HashTable{Base: base, nBuckets: nBuckets}
}

// hashKey scrambles the key so sequential keys spread over buckets.
func hashKey(k int64) uint64 {
	x := uint64(k)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

func (h HashTable) bucket(m Mem, k int64) List {
	i := int(hashKey(k) % uint64(h.nBuckets))
	return List{Head: i2a(m.Load(w(h.Base, htData+i)))}
}

// Insert adds (key, data) if absent, reporting whether it inserted.
func (h HashTable) Insert(m Mem, al Allocator, k, data int64) bool {
	return h.bucket(m, k).InsertUnique(m, al, k, data)
}

// Get returns the data under key.
func (h HashTable) Get(m Mem, k int64) (int64, bool) {
	return h.bucket(m, k).Find(m, k)
}

// Len counts all entries (walks every chain).
func (h HashTable) Len(m Mem) int {
	n := 0
	for i := 0; i < h.nBuckets; i++ {
		l := List{Head: i2a(m.Load(w(h.Base, htData+i)))}
		n += l.Len(m)
	}
	return n
}
