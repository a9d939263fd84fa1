package stamp

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/ds"
	"rtmlab/internal/rng"
	"rtmlab/internal/tm"
)

// Vacation ports STAMP's vacation: a travel-reservation OLTP system. The
// database is four red-black trees — cars, rooms and flights (id ->
// [total, avail, price]) plus customers (id -> reservation list) — and
// every client session runs as one coarse-grain transaction.
//
// Optimized applies the paper's §V-B case study cumulatively:
//
//  1. single tree lookup per item (the node pointer is reused for the
//     price query and the availability update, instead of three
//     searches);
//  2. O(1) prepend into the customer's reservation list (the list is
//     only ever walked, so ordering is unnecessary);
//  3. a pre-touching allocator, eliminating page-fault (misc3) aborts
//     from in-transaction allocation.
type Vacation struct {
	Relations int // items per resource table
	Customers int
	Sessions  int // total client sessions
	Queries   int // items examined per session
	Optimized bool

	tables  [3]ds.RBTree // car, room, flight
	cust    ds.RBTree
	initial int64 // per-item initial availability
}

// Resource record layout: [total, avail, price].
const (
	rTotal = 0
	rAvail = 1
	rPrice = 2
	rWords = 3
)

// NewVacation returns the benchmark at the given scale. The paper's
// configuration (64 K relations, user sessions only) is scaled to
// simulator size while keeping the session mix.
func NewVacation(s Scale, optimized bool) *Vacation {
	switch s {
	case Test:
		return &Vacation{Relations: 128, Customers: 32, Sessions: 128, Queries: 2, Optimized: optimized}
	case Small:
		return &Vacation{Relations: 1024, Customers: 256, Sessions: 1024, Queries: 4, Optimized: optimized}
	default:
		return &Vacation{Relations: 8192, Customers: 2048, Sessions: 8192, Queries: 4, Optimized: optimized}
	}
}

// Name implements Benchmark.
func (v *Vacation) Name() string {
	if v.Optimized {
		return "vacation-opt"
	}
	return "vacation"
}

// vacQuery is one item examined during a session.
type vacQuery struct {
	tbl int
	id  int64
}

// reservation list key: resource type and id packed together.
func resKey(table int, id int64) int64 { return int64(table)<<32 | id }

// Setup populates the four tables.
func (v *Vacation) Setup(c *tm.Ctx, seed uint64) {
	r := rng.New(seed * 4099)
	v.initial = 20
	for tbl := 0; tbl < 3; tbl++ {
		v.tables[tbl] = ds.NewRBTree(c, c)
		for id := 0; id < v.Relations; id++ {
			rec := c.Alloc(rWords)
			c.Store(rec+rTotal*arch.WordSize, v.initial)
			c.Store(rec+rAvail*arch.WordSize, v.initial)
			c.Store(rec+rPrice*arch.WordSize, int64(50+r.Intn(450)))
			v.tables[tbl].Insert(c, c, int64(id), int64(rec))
		}
	}
	v.cust = ds.NewRBTree(c, c)
	for id := 0; id < v.Customers; id++ {
		lst := ds.NewList(c, c)
		v.cust.Insert(c, c, int64(id), int64(lst.Head))
	}
}

// Parallel issues the client sessions: reservations only, the paper's
// Table-V workload (-u 100).
func (v *Vacation) Parallel(sys *tm.System, threads int, seed uint64) {
	sys.Run(threads, seed, func(c *tm.Ctx) {
		lo := c.P.ID() * v.Sessions / threads
		hi := (c.P.ID() + 1) * v.Sessions / threads
		for s := lo; s < hi; s++ {
			// STAMP draws each session's kind (reservation, deletion or
			// update); at -u 100 every kind is a reservation, but the draw
			// stays so that every later draw, and so the output, is
			// unchanged.
			c.P.Rng.Intn(100)
			custID := int64(c.P.Rng.Intn(v.Customers))
			// Pre-draw the queried items (ids fixed per session so every
			// retry sees the same working set, like the C original's
			// per-task query arrays).
			queries := make([]vacQuery, v.Queries)
			for q := range queries {
				queries[q] = vacQuery{tbl: c.P.Rng.Intn(3), id: int64(c.P.Rng.Intn(v.Relations))}
			}
			c.AtomicSite("reserve", func(t tm.Tx) {
				if v.Optimized {
					v.reserveOpt(c, t, custID, queries)
				} else {
					v.reserveBase(c, t, custID, queries)
				}
			})
		}
	})
}

// reserveBase mirrors the original programming style: existence check,
// separate price lookup, then a third lookup to update availability, plus
// sorted insertion into the customer's reservation list.
func (v *Vacation) reserveBase(c *tm.Ctx, t tm.Tx, custID int64, queries []vacQuery) {
	bestPrice := [3]int64{-1, -1, -1}
	bestID := [3]int64{-1, -1, -1}
	for _, q := range queries {
		tree := v.tables[q.tbl]
		if !tree.Contains(t, q.id) { // lookup 1: existence
			continue
		}
		recI, _ := tree.Get(t, q.id) // lookup 2: price/availability
		rec := uint64(recI)
		if t.Load(rec+rAvail*arch.WordSize) <= 0 {
			continue
		}
		price := t.Load(rec + rPrice*arch.WordSize)
		if price > bestPrice[q.tbl] {
			bestPrice[q.tbl] = price
			bestID[q.tbl] = q.id
		}
	}
	custList, okCust := v.cust.Get(t, custID)
	for tbl := 0; tbl < 3; tbl++ {
		if bestID[tbl] < 0 {
			continue
		}
		recI, ok := v.tables[tbl].Get(t, bestID[tbl]) // lookup 3: reserve
		if !ok {
			continue
		}
		rec := uint64(recI)
		avail := t.Load(rec + rAvail*arch.WordSize)
		if avail <= 0 {
			continue
		}
		t.Store(rec+rAvail*arch.WordSize, avail-1)
		if okCust {
			lst := ds.List{Head: uint64(custList)}
			// Sorted insertion: walks the reservation list in-txn.
			lst.Insert(t, c, resKey(tbl, bestID[tbl]), bestPrice[tbl])
		}
	}
}

// reserveOpt is the paper's optimized version: one lookup per item with
// the node pointer reused, and O(1) list prepends.
func (v *Vacation) reserveOpt(c *tm.Ctx, t tm.Tx, custID int64, queries []vacQuery) {
	bestPrice := [3]int64{-1, -1, -1}
	bestRec := [3]uint64{}
	bestID := [3]int64{-1, -1, -1}
	for _, q := range queries {
		node := v.tables[q.tbl].GetNode(t, q.id) // single lookup
		if node == 0 {
			continue
		}
		rec := uint64(ds.NodeData(t, node))
		if t.Load(rec+rAvail*arch.WordSize) <= 0 {
			continue
		}
		price := t.Load(rec + rPrice*arch.WordSize)
		if price > bestPrice[q.tbl] {
			bestPrice[q.tbl] = price
			bestRec[q.tbl] = rec
			bestID[q.tbl] = q.id
		}
	}
	custList, okCust := v.cust.Get(t, custID)
	for tbl := 0; tbl < 3; tbl++ {
		if bestID[tbl] < 0 {
			continue
		}
		rec := bestRec[tbl] // reuse the pointer: no re-lookup
		avail := t.Load(rec + rAvail*arch.WordSize)
		if avail <= 0 {
			continue
		}
		t.Store(rec+rAvail*arch.WordSize, avail-1)
		if okCust {
			lst := ds.List{Head: uint64(custList)}
			lst.PushFront(t, c, resKey(tbl, bestID[tbl]), bestPrice[tbl])
		}
	}
}

// Validate checks conservation: for every resource, total - avail must
// equal the reservations held by customers.
func (v *Vacation) Validate(sys *tm.System) error {
	m := hostPeek{sys}
	reserved := map[int64]int64{} // resKey -> count
	var custEntries int
	v.cust.Each(m, func(custID, listHead int64) bool {
		lst := ds.List{Head: uint64(listHead)}
		lst.Each(m, func(k, price int64) bool {
			reserved[k]++
			custEntries++
			if price <= 0 {
				custEntries = -1 << 30
				return false
			}
			return true
		})
		return true
	})
	if custEntries < 0 {
		return fmt.Errorf("vacation: reservation with non-positive price")
	}
	totalReserved := int64(0)
	for tbl := 0; tbl < 3; tbl++ {
		var err error
		v.tables[tbl].Each(m, func(id, recI int64) bool {
			rec := uint64(recI)
			total := m.Load(rec + rTotal*arch.WordSize)
			avail := m.Load(rec + rAvail*arch.WordSize)
			if avail < 0 || avail > total {
				err = fmt.Errorf("vacation: table %d item %d avail %d out of [0,%d]", tbl, id, avail, total)
				return false
			}
			taken := total - avail
			totalReserved += taken
			if reserved[resKey(tbl, id)] != taken {
				err = fmt.Errorf("vacation: table %d item %d: %d reserved in lists, %d taken",
					tbl, id, reserved[resKey(tbl, id)], taken)
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	if int(totalReserved) != custEntries {
		return fmt.Errorf("vacation: %d taken != %d list entries", totalReserved, custEntries)
	}
	return nil
}
