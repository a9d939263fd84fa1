package stamp

import (
	"fmt"

	"slices"

	"rtmlab/internal/arch"
	"rtmlab/internal/ds"
	"rtmlab/internal/rng"
	"rtmlab/internal/tm"
)

// Yada ports STAMP's yada (Delaunay mesh refinement) as a topological
// surrogate: the geometric predicates of Ruppert's algorithm are replaced
// by a deterministic quality rule, but the transactional structure is the
// original's — a shared work heap of bad elements, and a refinement
// transaction that (1) pops a bad element, (2) walks the mesh to collect
// the retriangulation cavity, (3) retires the cavity's elements and
// allocates replacements wired back into the mesh, pushing any new bad
// elements. This preserves what the paper measures: big working set,
// medium transaction length, a large read-write set, and medium contention
// between threads refining overlapping cavities.
type Yada struct {
	Initial  int // initial mesh elements
	BadFrac  int // one in BadFrac initial elements is bad
	MaxNew   int // growth bound: refinement stops when reached
	CavDepth int // cavity = neighbourhood of this BFS depth

	mesh     uint64 // element arena base
	elems    int64  // committed element count (updated after Parallel)
	elemCap  int
	workHeap ds.Heap
	badLeft  int64
	arena    []uint64 // element record addresses by id (fixed in Setup)
	grewOut  bool     // some thread exhausted its id region

	processed int64
	created   int64
}

// Element record layout: [alive, bad, nNeighbors, n0..n5] (ids, -1 none).
const (
	eAlive = 0
	eBad   = 1
	eN     = 2
	eNbr0  = 3
	eDeg   = 6 // max neighbours
	eWords = 3 + eDeg
)

// NewYada returns the benchmark at the given scale.
func NewYada(s Scale) *Yada {
	switch s {
	case Test:
		return &Yada{Initial: 128, BadFrac: 4, MaxNew: 256, CavDepth: 1}
	case Small:
		return &Yada{Initial: 1024, BadFrac: 4, MaxNew: 2048, CavDepth: 2}
	default:
		return &Yada{Initial: 8192, BadFrac: 4, MaxNew: 16384, CavDepth: 2}
	}
}

// Name implements Benchmark.
func (y *Yada) Name() string { return "yada" }

// Setup builds the initial mesh: a ring-with-chords topology whose
// elements have 3..6 neighbours, and seeds the bad-element heap.
func (y *Yada) Setup(c *tm.Ctx, seed uint64) {
	r := rng.New(seed * 6151)
	y.elemCap = y.Initial + y.MaxNew + 64
	y.processed = 0
	y.created = 0
	y.grewOut = false

	// The whole arena — initial mesh plus every element refinement may
	// ever create — is allocated up front, so the id→address table is
	// immutable during Parallel: threads on different engine shards read
	// it concurrently, and a Go-side append there could neither be shared
	// safely nor rolled back on abort. Fresh heap reads as zero, so the
	// not-yet-created tail is uniformly dead (alive=0).
	y.arena = make([]uint64, y.elemCap)
	for i := range y.arena {
		y.arena[i] = c.Alloc(eWords)
	}
	y.elems = int64(y.Initial)
	// Ring topology plus random chords.
	for i := 0; i < y.Initial; i++ {
		rec := y.arena[i]
		c.Store(rec+eAlive*arch.WordSize, 1)
		bad := int64(0)
		if r.Intn(y.BadFrac) == 0 {
			bad = 1
		}
		c.Store(rec+eBad*arch.WordSize, bad)
		nbrs := []int64{int64((i + 1) % y.Initial), int64((i + y.Initial - 1) % y.Initial)}
		if chord := r.Intn(y.Initial); chord != i {
			nbrs = append(nbrs, int64(chord))
		}
		c.Store(rec+eN*arch.WordSize, int64(len(nbrs)))
		for j := 0; j < eDeg; j++ {
			v := int64(-1)
			if j < len(nbrs) {
				v = nbrs[j]
			}
			c.Store(rec+uint64(eNbr0+j)*arch.WordSize, v)
		}
	}
	// Pre-sized so Push never grows the arena inside a transaction (a
	// Go-side Base pointer update could not be rolled back on abort).
	y.workHeap = ds.NewHeap(c, c, y.elemCap)
	for i := 0; i < y.Initial; i++ {
		if c.Load(y.arena[i]+eBad*arch.WordSize) == 1 {
			y.workHeap.Push(c, c, int64(i), int64(i))
		}
	}
}

// Parallel refines until the bad-element heap drains (or growth bound).
func (y *Yada) Parallel(sys *tm.System, threads int, seed uint64) {
	processed := make([]int64, threads)
	created := make([]int64, threads)
	grew := make([]bool, threads)

	sys.Run(threads, seed, func(c *tm.Ctx) {
		tid := c.P.ID()
		newBadProb := 0.22
		// Each thread creates elements out of its own slice of the
		// pre-allocated id space (mirroring STAMP's thread-local element
		// allocator): no shared allocation state to race on at the Go
		// level, and nothing to roll back when an attempt aborts — the
		// cursor only advances after the transaction commits.
		idNext := int64(y.Initial + tid*y.MaxNew/threads)
		idEnd := int64(y.Initial + (tid+1)*y.MaxNew/threads)
		// Host-side scratch of the refine body, one per thread (sharded
		// threads run on concurrent workers). Every attempt truncates
		// both before use, so a re-executed attempt starts from empty.
		var cavity, boundary []int64
		for {
			var id int64
			var ok bool
			c.AtomicSite("pop", func(t tm.Tx) {
				_, id, ok = y.workHeap.Pop(t)
			})
			if !ok {
				break
			}
			refined := false
			allocated := int64(0)
			c.AtomicSite("refine", func(t tm.Tx) {
				refined = false
				allocated = 0
				rec := y.arena[id]
				if t.Load(rec+eAlive*arch.WordSize) == 0 || t.Load(rec+eBad*arch.WordSize) == 0 {
					return // already retired by an overlapping cavity
				}
				// Collect the cavity: BFS to CavDepth. cavity[lo:hi] is
				// the frontier; the elements seen so far are the cavity
				// and, below, the boundary.
				cavity = append(cavity[:0], id)
				boundary = boundary[:0]
				seen := func(e int64) bool { return slices.Contains(cavity, e) || slices.Contains(boundary, e) }
				for depth, lo := 0, 0; depth < y.CavDepth; depth++ {
					hi := len(cavity)
					for _, e := range cavity[lo:hi] {
						er := y.arena[e]
						n := t.Load(er + eN*arch.WordSize)
						for j := int64(0); j < n; j++ {
							nb := t.Load(er + uint64(eNbr0+int(j))*arch.WordSize)
							if nb < 0 || seen(nb) {
								continue
							}
							if t.Load(y.arena[nb]+eAlive*arch.WordSize) == 0 {
								continue
							}
							cavity = append(cavity, nb) //rtmvet:ignore per-thread scratch, truncated at the top of every attempt
						}
					}
					lo = hi
				}
				if idNext+int64(len(cavity)) > idEnd {
					grew[tid] = true //rtmvet:ignore idempotent per-thread flag slot; re-setting true on a re-executed attempt is harmless
					return           // growth bound: this thread's id region is full
				}
				// Boundary = alive neighbours of the cavity outside it.
				for _, e := range cavity {
					er := y.arena[e]
					n := t.Load(er + eN*arch.WordSize)
					for j := int64(0); j < n; j++ {
						nb := t.Load(er + uint64(eNbr0+int(j))*arch.WordSize)
						if nb >= 0 && !seen(nb) && t.Load(y.arena[nb]+eAlive*arch.WordSize) == 1 {
							boundary = append(boundary, nb) //rtmvet:ignore per-thread scratch, truncated at the top of every attempt
						}
					}
				}
				// Retire the cavity.
				for _, e := range cavity {
					t.Store(y.arena[e]+eAlive*arch.WordSize, 0)
					t.Store(y.arena[e]+eBad*arch.WordSize, 0)
				}
				// Allocate replacements: a chain of new elements, ids
				// idNext.., stitched to the boundary.
				nNew := len(cavity)
				for k := 0; k < nNew; k++ {
					nid := idNext + int64(k)
					rec := y.arena[nid]
					t.Store(rec+eAlive*arch.WordSize, 1)
					var nbrs [3]int64
					deg := 0
					if k > 0 {
						nbrs[deg] = nid - 1
						deg++
					}
					if k < nNew-1 {
						nbrs[deg] = nid + 1
						deg++
					}
					if k < len(boundary) {
						nbrs[deg] = boundary[k]
						deg++
						// Wire back: replace a dead neighbour slot (or an
						// empty one) in the boundary element.
						y.rewire(t, boundary[k], nid)
					}
					isBad := int64(0)
					if c.P.Rng.Float64() < newBadProb { //rtmvet:ignore per-attempt rng draw, as in STAMP yada; stays deterministic because retries are scheduler-deterministic
						isBad = 1
					}
					t.Store(rec+eBad*arch.WordSize, isBad)
					t.Store(rec+eN*arch.WordSize, int64(deg))
					for j := 0; j < eDeg; j++ {
						v := int64(-1)
						if j < deg {
							v = nbrs[j]
						}
						t.Store(rec+uint64(eNbr0+j)*arch.WordSize, v)
					}
					if isBad == 1 {
						y.workHeap.Push(t, c, nid, nid) //rtmvet:ignore grow allocates from the deterministic simulated allocator; a regrow re-executed after abort wastes arena words but stays correct and deterministic
					}
				}
				allocated = int64(nNew)
				refined = true
			})
			if refined {
				processed[tid]++
				created[tid] += allocated
				idNext += allocated
			}
		}
	})
	for tid := 0; tid < threads; tid++ {
		y.processed += processed[tid]
		y.created += created[tid]
		if grew[tid] {
			y.grewOut = true
		}
	}
	y.elems = int64(y.Initial) + y.created
}

// rewire replaces a dead (or empty) neighbour slot of element e with nid.
func (y *Yada) rewire(t tm.Tx, e, nid int64) {
	er := y.arena[e]
	n := t.Load(er + eN*arch.WordSize)
	for j := int64(0); j < n; j++ {
		slot := er + uint64(eNbr0+int(j))*arch.WordSize
		nb := t.Load(slot)
		if nb < 0 || t.Load(y.arena[nb]+eAlive*arch.WordSize) == 0 {
			t.Store(slot, nid)
			return
		}
	}
	if n < eDeg {
		t.Store(er+uint64(eNbr0+int(n))*arch.WordSize, nid)
		t.Store(er+eN*arch.WordSize, n+1)
	}
}

// Validate checks mesh consistency: no bad elements remain alive (unless
// the growth bound stopped refinement), neighbour links of alive elements
// point to valid ids, and element accounting matches.
func (y *Yada) Validate(sys *tm.System) error {
	m := hostPeek{sys}
	if y.processed == 0 {
		return fmt.Errorf("yada: nothing refined")
	}
	if y.elems > int64(len(y.arena)) {
		return fmt.Errorf("yada: elems %d exceeds arena %d", y.elems, len(y.arena))
	}
	// Ids are handed out in per-thread regions, so the live set is sparse
	// in [0, elemCap): walk the whole arena and let alive flags select.
	aliveBad := 0
	for id := int64(0); id < int64(len(y.arena)); id++ {
		rec := y.arena[id]
		alive := m.Load(rec + eAlive*arch.WordSize)
		if alive == 0 {
			continue
		}
		if m.Load(rec+eBad*arch.WordSize) == 1 {
			aliveBad++
		}
		n := m.Load(rec + eN*arch.WordSize)
		if n < 0 || n > eDeg {
			return fmt.Errorf("yada: element %d has %d neighbours", id, n)
		}
		for j := int64(0); j < n; j++ {
			nb := m.Load(rec + uint64(eNbr0+int(j))*arch.WordSize)
			if nb >= int64(len(y.arena)) {
				return fmt.Errorf("yada: element %d links to unknown %d", id, nb)
			}
		}
	}
	if aliveBad > 0 && !y.grewOut {
		return fmt.Errorf("yada: %d bad elements left alive with work heap drained", aliveBad)
	}
	return nil
}
