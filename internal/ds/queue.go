package ds

// Queue is STAMP's circular-buffer queue (lib/queue.c), with free-running
// head/tail indices (slot = index % capacity), which also makes the
// CAS-based pop ABA-free.
//
// Layout: [capacity, head, tail, slot0, slot1, ...].
type Queue struct {
	Base uint64
}

const (
	qCap  = 0
	qHead = 1
	qTail = 2
	qData = 3
)

// NewQueue allocates a queue with the given initial capacity.
func NewQueue(m Mem, al Allocator, capacity int) Queue {
	if capacity < 1 {
		capacity = 1
	}
	base := al.AllocAligned(qData + capacity)
	q := Queue{Base: base}
	m.Store(w(base, qCap), int64(capacity))
	m.Store(w(base, qHead), 0)
	m.Store(w(base, qTail), 0)
	return q
}

// Words returns the allocation size for a capacity (for Free).
func queueWords(capacity int) int { return qData + capacity }

// Len returns the number of queued elements.
func (q Queue) Len(m Mem) int {
	return int(m.Load(w(q.Base, qTail)) - m.Load(w(q.Base, qHead)))
}

// Push appends v, growing the buffer when full. Growth allocates a new
// slot array double the size and copies live elements (like STAMP's
// queue_push).
func (q *Queue) Push(m Mem, al Allocator, v int64) {
	capacity := m.Load(w(q.Base, qCap))
	head := m.Load(w(q.Base, qHead))
	tail := m.Load(w(q.Base, qTail))
	if tail-head == capacity {
		q.grow(m, al, int(capacity), head, tail)
		capacity = m.Load(w(q.Base, qCap))
		head = m.Load(w(q.Base, qHead))
		tail = m.Load(w(q.Base, qTail))
	}
	m.Store(w(q.Base, qData+int(tail%capacity)), v)
	m.Store(w(q.Base, qTail), tail+1)
}

func (q *Queue) grow(m Mem, al Allocator, oldCap int, head, tail int64) {
	newCap := oldCap * 2
	newBase := al.AllocAligned(qData + newCap)
	m.Store(w(newBase, qCap), int64(newCap))
	m.Store(w(newBase, qHead), 0)
	m.Store(w(newBase, qTail), tail-head)
	for i := int64(0); i < tail-head; i++ {
		v := m.Load(w(q.Base, qData+int((head+i)%int64(oldCap))))
		m.Store(w(newBase, qData+int(i)), v)
	}
	al.Free(q.Base, queueWords(oldCap))
	q.Base = newBase
}

// Pop removes and returns the oldest element; ok is false when empty.
func (q Queue) Pop(m Mem) (v int64, ok bool) {
	head := m.Load(w(q.Base, qHead))
	tail := m.Load(w(q.Base, qTail))
	if head == tail {
		return 0, false
	}
	capacity := m.Load(w(q.Base, qCap))
	v = m.Load(w(q.Base, qData+int(head%capacity)))
	m.Store(w(q.Base, qHead), head+1)
	return v, true
}

// CASMem is the interface needed by the lock-free pop (satisfied by
// tm.Ctx).
type CASMem interface {
	Mem
	RMW(addr uint64, f func(int64) int64) int64
}

// PopCAS is the compare-and-swap variant of queue_pop used by the paper's
// Table I overhead experiment: read head/tail/value, then CAS the head
// forward; retry on interference.
func (q Queue) PopCAS(c CASMem) (v int64, ok bool) {
	capacity := c.Load(w(q.Base, qCap))
	for {
		head := c.Load(w(q.Base, qHead))
		tail := c.Load(w(q.Base, qTail))
		if head == tail {
			return 0, false
		}
		v = c.Load(w(q.Base, qData+int(head%capacity)))
		got := false
		c.RMW(w(q.Base, qHead), func(cur int64) int64 {
			if cur == head {
				got = true
				return cur + 1
			}
			return cur
		})
		if got {
			return v, true
		}
	}
}
