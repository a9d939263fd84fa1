package ds

import (
	"sort"
	"testing"
	"testing/quick"

	"rtmlab/internal/rng"
)

// hostMem is a plain in-process Mem for unit tests (no simulator needed).
type hostMem map[uint64]int64

func (h hostMem) Load(addr uint64) int64       { return h[addr] }
func (h hostMem) Store(addr uint64, val int64) { h[addr] = val }
func (h hostMem) RMW(addr uint64, f func(int64) int64) int64 {
	old := h[addr]
	h[addr] = f(old)
	return old
}

// hostAlloc is a bump allocator for unit tests.
type hostAlloc struct{ next uint64 }

func newHostAlloc() *hostAlloc { return &hostAlloc{next: 1 << 20} }

func (a *hostAlloc) Alloc(n int) uint64 {
	addr := a.next
	a.next += uint64(n) * 8
	return addr
}

func (a *hostAlloc) AllocAligned(n int) uint64 {
	a.next = (a.next + 63) &^ 63
	return a.Alloc(n)
}

func (a *hostAlloc) Free(addr uint64, n int) {}

func env() (hostMem, *hostAlloc) { return hostMem{}, newHostAlloc() }

// --- Queue ---------------------------------------------------------------

func TestQueueFIFO(t *testing.T) {
	m, al := env()
	q := NewQueue(m, al, 4)
	for i := int64(0); i < 10; i++ {
		q.Push(m, al, i)
	}
	if q.Len(m) != 10 {
		t.Fatalf("len = %d", q.Len(m))
	}
	for i := int64(0); i < 10; i++ {
		v, ok := q.Pop(m)
		if !ok || v != i {
			t.Fatalf("pop %d = (%d,%v)", i, v, ok)
		}
	}
	if _, ok := q.Pop(m); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestQueueGrowthPreservesOrder(t *testing.T) {
	f := func(seed uint64) bool {
		m, al := env()
		q := NewQueue(m, al, 2)
		r := rng.New(seed)
		var model []int64
		for op := 0; op < 500; op++ {
			if r.Bool(0.6) {
				v := int64(r.Uint32())
				q.Push(m, al, v)
				model = append(model, v)
			} else if len(model) > 0 {
				v, ok := q.Pop(m)
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		return q.Len(m) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQueuePopCAS(t *testing.T) {
	m, al := env()
	q := NewQueue(m, al, 8)
	for i := int64(1); i <= 5; i++ {
		q.Push(m, al, i)
	}
	for i := int64(1); i <= 5; i++ {
		v, ok := q.PopCAS(m)
		if !ok || v != i {
			t.Fatalf("PopCAS = (%d,%v), want %d", v, ok, i)
		}
	}
	if _, ok := q.PopCAS(m); ok {
		t.Fatal("PopCAS on empty succeeded")
	}
}

// --- List ----------------------------------------------------------------

func TestListSortedInsert(t *testing.T) {
	m, al := env()
	l := NewList(m, al)
	for _, k := range []int64{5, 1, 9, 3, 7} {
		l.Insert(m, al, k, k*10)
	}
	keys := l.Keys(m)
	want := []int64{1, 3, 5, 7, 9}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
	if d, ok := l.Find(m, 7); !ok || d != 70 {
		t.Fatalf("find(7) = (%d,%v)", d, ok)
	}
	if _, ok := l.Find(m, 4); ok {
		t.Fatal("found absent key")
	}
}

func TestListInsertUnique(t *testing.T) {
	m, al := env()
	l := NewList(m, al)
	if !l.InsertUnique(m, al, 5, 1) {
		t.Fatal("first insert failed")
	}
	if l.InsertUnique(m, al, 5, 2) {
		t.Fatal("duplicate insert succeeded")
	}
	if l.Len(m) != 1 {
		t.Fatalf("len = %d", l.Len(m))
	}
}

func TestListPushFrontAndRemove(t *testing.T) {
	m, al := env()
	l := NewList(m, al)
	l.PushFront(m, al, 3, 30)
	l.PushFront(m, al, 1, 10)
	l.PushFront(m, al, 2, 20)
	keys := l.Keys(m)
	if keys[0] != 2 || keys[1] != 1 || keys[2] != 3 {
		t.Fatalf("keys = %v (prepend order)", keys)
	}
	if !l.Remove(m, al, 1) {
		t.Fatal("remove failed")
	}
	if l.Remove(m, al, 1) {
		t.Fatal("double remove succeeded")
	}
	if l.Len(m) != 2 {
		t.Fatalf("len = %d", l.Len(m))
	}
}

func TestListClear(t *testing.T) {
	m, al := env()
	l := NewList(m, al)
	l.Insert(m, al, 1, 11)
	l.Insert(m, al, 2, 22)
	l.Clear(m, al)
	if l.Len(m) != 0 {
		t.Fatal("clear failed")
	}
	if _, ok := l.Find(m, 1); ok {
		t.Fatal("find after clear")
	}
}

// --- RBTree ----------------------------------------------------------------

func TestRBTreeBasic(t *testing.T) {
	m, al := env()
	tr := NewRBTree(m, al)
	for _, k := range []int64{50, 20, 80, 10, 30, 70, 90, 25, 35} {
		if !tr.Insert(m, al, k, k*2) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if tr.Insert(m, al, 50, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := tr.Get(m, 30); !ok || v != 60 {
		t.Fatalf("get(30) = (%d,%v)", v, ok)
	}
	if tr.Contains(m, 31) {
		t.Fatal("contains absent key")
	}
	if err := tr.CheckInvariants(m); err != "" {
		t.Fatal(err)
	}
	if tr.Count(m) != 9 {
		t.Fatalf("count = %d", tr.Count(m))
	}
}

func TestRBTreeInorderSorted(t *testing.T) {
	m, al := env()
	tr := NewRBTree(m, al)
	r := rng.New(42)
	for i := 0; i < 500; i++ {
		tr.Insert(m, al, int64(r.Intn(10000)), 0)
	}
	var keys []int64
	tr.Each(m, func(k, _ int64) bool { keys = append(keys, k); return true })
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("inorder walk not sorted")
	}
}

func TestRBTreeInsertDeleteModel(t *testing.T) {
	f := func(seed uint64) bool {
		m, al := env()
		tr := NewRBTree(m, al)
		r := rng.New(seed)
		model := map[int64]int64{}
		for op := 0; op < 400; op++ {
			k := int64(r.Intn(80))
			switch {
			case r.Bool(0.5):
				ins := tr.Insert(m, al, k, k+1000)
				_, had := model[k]
				if ins == had {
					t.Logf("insert(%d) = %v but model had=%v", k, ins, had)
					return false
				}
				if ins {
					model[k] = k + 1000
				}
			default:
				del := tr.Delete(m, al, k)
				_, had := model[k]
				if del != had {
					t.Logf("delete(%d) = %v but model had=%v", k, del, had)
					return false
				}
				delete(model, k)
			}
			if err := tr.CheckInvariants(m); err != "" {
				t.Logf("invariant after op %d: %s", op, err)
				return false
			}
		}
		if tr.Count(m) != len(model) {
			return false
		}
		for k, v := range model {
			if got, ok := tr.Get(m, k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRBTreeNodeAccess(t *testing.T) {
	m, al := env()
	tr := NewRBTree(m, al)
	tr.Insert(m, al, 7, 70)
	n := tr.GetNode(m, 7)
	if n == 0 {
		t.Fatal("GetNode failed")
	}
	if NodeData(m, n) != 70 {
		t.Fatal("NodeData wrong")
	}
	if tr.GetNode(m, 8) != 0 {
		t.Fatal("GetNode on absent key")
	}
}

// --- Heap ----------------------------------------------------------------

func TestHeapOrdering(t *testing.T) {
	f := func(seed uint64) bool {
		m, al := env()
		h := NewHeap(m, al, 2)
		r := rng.New(seed)
		n := 1 + r.Intn(300)
		count := map[int64]int{}
		for i := 0; i < n; i++ {
			k := int64(r.Intn(100))
			h.Push(m, al, k, k*3)
			count[k]++
		}
		prev := int64(-1)
		for i := 0; i < n; i++ {
			k, d, ok := h.Pop(m)
			if !ok || k < prev || d != k*3 {
				return false
			}
			count[k]--
			prev = k
		}
		_, _, ok := h.Pop(m)
		if ok {
			return false
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapPeek(t *testing.T) {
	m, al := env()
	h := NewHeap(m, al, 4)
	if _, _, ok := h.Peek(m); ok {
		t.Fatal("peek on empty")
	}
	h.Push(m, al, 5, 0)
	h.Push(m, al, 2, 0)
	if k, _, _ := h.Peek(m); k != 2 {
		t.Fatalf("peek = %d", k)
	}
	if h.Len(m) != 2 {
		t.Fatal("peek consumed")
	}
}

// --- HashTable -------------------------------------------------------------

func TestHashTableModel(t *testing.T) {
	f := func(seed uint64) bool {
		m, al := env()
		ht := NewHashTable(m, al, 16)
		r := rng.New(seed)
		model := map[int64]int64{}
		for op := 0; op < 400; op++ {
			k := int64(r.Intn(100))
			switch {
			case r.Bool(0.5):
				ins := ht.Insert(m, al, k, k*7)
				_, had := model[k]
				if ins == had {
					return false
				}
				if ins {
					model[k] = k * 7
				}
			case r.Bool(0.5):
				if ht.Remove(m, al, k) != (func() bool { _, ok := model[k]; return ok }()) {
					return false
				}
				delete(model, k)
			default:
				v, ok := ht.Get(m, k)
				mv, mok := model[k]
				if ok != mok || (ok && v != mv) {
					return false
				}
			}
		}
		return ht.Len(m) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHashTableEach(t *testing.T) {
	m, al := env()
	ht := NewHashTable(m, al, 8)
	for i := int64(0); i < 50; i++ {
		ht.Insert(m, al, i, i)
	}
	seen := map[int64]bool{}
	ht.Each(m, func(k, d int64) bool {
		if k != d {
			t.Fatalf("pair mismatch %d %d", k, d)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 50 {
		t.Fatalf("visited %d entries", len(seen))
	}
}

// --- Bitmap ----------------------------------------------------------------

func TestBitmap(t *testing.T) {
	m, al := env()
	b := NewBitmap(m, al, 200)
	if b.Bits(m) != 200 {
		t.Fatal("size wrong")
	}
	if !b.Set(m, 5) || !b.Set(m, 64) || !b.Set(m, 199) {
		t.Fatal("set failed")
	}
	if b.Set(m, 5) {
		t.Fatal("double set returned true")
	}
	if !b.Test(m, 64) || b.Test(m, 63) {
		t.Fatal("test wrong")
	}
	if b.Count(m) != 3 {
		t.Fatalf("count = %d", b.Count(m))
	}
	b.Clear(m, 64)
	if b.Test(m, 64) || b.Count(m) != 2 {
		t.Fatal("clear failed")
	}
}

func TestRBTreeSentinelNeverWritten(t *testing.T) {
	// The nil sentinel is shared by every transaction; writes to it would
	// manufacture conflicts. Verify it stays bit-identical through heavy
	// insert/delete traffic.
	m, al := env()
	tr := NewRBTree(m, al)
	sentinel := make([]int64, RBNodeWords)
	for i := range sentinel {
		sentinel[i] = m.Load(tr.nil_ + uint64(i)*8)
	}
	r := rng.New(99)
	for op := 0; op < 2000; op++ {
		k := int64(r.Intn(64))
		if r.Bool(0.5) {
			tr.Insert(m, al, k, k)
		} else {
			tr.Delete(m, al, k)
		}
	}
	for i := range sentinel {
		if got := m.Load(tr.nil_ + uint64(i)*8); got != sentinel[i] {
			t.Fatalf("sentinel word %d changed: %d -> %d", i, sentinel[i], got)
		}
	}
	if err := tr.CheckInvariants(m); err != "" {
		t.Fatal(err)
	}
}
