package ds

// List is STAMP's singly-linked list (lib/list.c) with a sentinel head
// node, storing (key, data) pairs. Insertion is sorted by key by default;
// PushFront gives the O(1) prepend the paper's intruder/vacation
// optimizations use.
//
// Header: one sentinel node; node layout: [next, key, data].
type List struct {
	Head uint64 // sentinel node address
}

const (
	lNext = 0
	lKey  = 1
	lData = 2
	// ListNodeWords is the allocation size of one list node.
	ListNodeWords = 3
)

// NewList allocates an empty list.
func NewList(m Mem, al Allocator) List {
	head := al.Alloc(ListNodeWords)
	m.Store(w(head, lNext), 0)
	m.Store(w(head, lKey), 0)
	m.Store(w(head, lData), 0)
	return List{Head: head}
}

// Len walks the list and returns its length.
func (l List) Len(m Mem) int {
	n := 0
	for cur := i2a(m.Load(w(l.Head, lNext))); cur != 0; cur = i2a(m.Load(w(cur, lNext))) {
		n++
	}
	return n
}

// Insert adds (key, data) keeping the list sorted ascending by key.
// Duplicate keys are allowed and kept adjacent. Returns the new node.
func (l List) Insert(m Mem, al Allocator, key, data int64) uint64 {
	prev := l.Head
	cur := i2a(m.Load(w(prev, lNext)))
	for cur != 0 && m.Load(w(cur, lKey)) < key {
		prev = cur
		cur = i2a(m.Load(w(cur, lNext)))
	}
	node := al.Alloc(ListNodeWords)
	m.Store(w(node, lKey), key)
	m.Store(w(node, lData), data)
	m.Store(w(node, lNext), a2i(cur))
	m.Store(w(prev, lNext), a2i(node))
	return node
}

// InsertUnique adds (key, data) if the key is absent; reports whether the
// insertion happened.
func (l List) InsertUnique(m Mem, al Allocator, key, data int64) bool {
	prev := l.Head
	cur := i2a(m.Load(w(prev, lNext)))
	for cur != 0 {
		k := m.Load(w(cur, lKey))
		if k == key {
			return false
		}
		if k > key {
			break
		}
		prev = cur
		cur = i2a(m.Load(w(cur, lNext)))
	}
	node := al.Alloc(ListNodeWords)
	m.Store(w(node, lKey), key)
	m.Store(w(node, lData), data)
	m.Store(w(node, lNext), a2i(cur))
	m.Store(w(prev, lNext), a2i(node))
	return true
}

// PushFront prepends (key, data) in O(1) — the RTM-friendly insertion the
// paper's case studies switch to. Returns the new node.
func (l List) PushFront(m Mem, al Allocator, key, data int64) uint64 {
	node := al.Alloc(ListNodeWords)
	m.Store(w(node, lKey), key)
	m.Store(w(node, lData), data)
	m.Store(w(node, lNext), m.Load(w(l.Head, lNext)))
	m.Store(w(l.Head, lNext), a2i(node))
	return node
}

// Find returns the data of the first node with the given key.
func (l List) Find(m Mem, key int64) (data int64, ok bool) {
	for cur := i2a(m.Load(w(l.Head, lNext))); cur != 0; cur = i2a(m.Load(w(cur, lNext))) {
		if m.Load(w(cur, lKey)) == key {
			return m.Load(w(cur, lData)), true
		}
	}
	return 0, false
}

// Remove unlinks and frees the first node with the given key.
func (l List) Remove(m Mem, al Allocator, key int64) bool {
	prev := l.Head
	cur := i2a(m.Load(w(prev, lNext)))
	for cur != 0 {
		if m.Load(w(cur, lKey)) == key {
			m.Store(w(prev, lNext), m.Load(w(cur, lNext)))
			al.Free(cur, ListNodeWords)
			return true
		}
		prev = cur
		cur = i2a(m.Load(w(cur, lNext)))
	}
	return false
}

// Each calls fn for every (key, data) pair in list order; fn returning
// false stops the walk.
func (l List) Each(m Mem, fn func(key, data int64) bool) {
	for cur := i2a(m.Load(w(l.Head, lNext))); cur != 0; cur = i2a(m.Load(w(cur, lNext))) {
		if !fn(m.Load(w(cur, lKey)), m.Load(w(cur, lData))) {
			return
		}
	}
}

// Clear frees all nodes (not the sentinel).
func (l List) Clear(m Mem, al Allocator) {
	cur := i2a(m.Load(w(l.Head, lNext)))
	for cur != 0 {
		next := i2a(m.Load(w(cur, lNext)))
		al.Free(cur, ListNodeWords)
		cur = next
	}
	m.Store(w(l.Head, lNext), 0)
}

// Keys returns all keys in list order (test/diagnostic helper).
func (l List) Keys(m Mem) []int64 {
	var out []int64
	l.Each(m, func(k, _ int64) bool {
		out = append(out, k)
		return true
	})
	return out
}
