package stamp

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/ds"
	"rtmlab/internal/rng"
	"rtmlab/internal/tm"
)

// Intruder ports STAMP's intruder: a network intrusion-detection system.
// Packets (fragments of flows) arrive in a shared capture queue; the
// reassembly transaction looks the flow up in a red-black tree of
// incomplete flows, inserts the fragment into the flow's list, and — when
// the flow is complete — removes it from the tree and hands it to the
// detection phase, which matches the reassembled payload against attack
// signatures.
//
// Optimized reproduces the paper's §V-A case study: fragments are
// prepended to the flow list in O(1) instead of sorted insertion (sorting
// is deferred to the private reassembly step), shrinking both the
// read-set footprint and transaction duration of the main transaction.
type Intruder struct {
	Flows     int
	MaxFrags  int
	Attacks   int
	Optimized bool

	capture ds.Queue  // packet addresses
	flows   ds.RBTree // flowId -> flow record
	decoded ds.Queue  // completed flow record addresses

	expected  map[int64]int64 // flowId -> expected payload hash
	attackIDs map[int64]bool
	found     map[int64]bool
	processed int64
}

// Packet record layout: [flowId, fragIdx, nFrags, payload].
const (
	pkFlow  = 0
	pkIdx   = 1
	pkN     = 2
	pkPay   = 3
	pkWords = 4
)

// Flow record layout: [listHead, got, nFrags, flowId].
const (
	flList  = 0
	flGot   = 1
	flN     = 2
	flID    = 3
	flWords = 4
)

// NewIntruder returns the benchmark at the given scale.
func NewIntruder(s Scale, optimized bool) *Intruder {
	// MaxFrags follows STAMP's -l: the recommended runs use up to 128
	// fragments per flow, which is what makes the sorted in-transaction
	// insertion of the baseline expensive (Table IV).
	switch s {
	case Test:
		return &Intruder{Flows: 32, MaxFrags: 16, Attacks: 6, Optimized: optimized}
	case Small:
		return &Intruder{Flows: 192, MaxFrags: 64, Attacks: 16, Optimized: optimized}
	default:
		return &Intruder{Flows: 512, MaxFrags: 128, Attacks: 64, Optimized: optimized}
	}
}

// Name implements Benchmark.
func (b *Intruder) Name() string {
	if b.Optimized {
		return "intruder-opt"
	}
	return "intruder"
}

// payloadHash combines fragment payloads in fragment order; a wrong
// reassembly order yields a different hash, so validation catches it.
func payloadHash(h, frag int64) int64 { return h*1000003 + frag }

// Setup builds the flows, plants the attacks and shuffles all fragments
// into the capture queue.
func (b *Intruder) Setup(c *tm.Ctx, seed uint64) {
	r := rng.New(seed * 31337)
	b.expected = make(map[int64]int64, b.Flows)
	b.attackIDs = make(map[int64]bool, b.Attacks)
	b.found = make(map[int64]bool)
	b.processed = 0

	type frag struct{ flow, idx, n, pay int64 }
	var all []frag
	for f := 0; f < b.Flows; f++ {
		n := 1 + r.Intn(b.MaxFrags)
		h := int64(0)
		for i := 0; i < n; i++ {
			pay := int64(r.Uint32())
			h = payloadHash(h, pay)
			all = append(all, frag{int64(f), int64(i), int64(n), pay})
		}
		b.expected[int64(f)] = h
		if f < b.Attacks {
			b.attackIDs[int64(f)] = true
		}
	}
	perm := r.Perm(len(all))
	b.capture = ds.NewQueue(c, c, len(all)+1)
	for _, pi := range perm {
		fr := all[pi]
		pk := c.Alloc(pkWords)
		c.Store(pk+pkFlow*arch.WordSize, fr.flow)
		c.Store(pk+pkIdx*arch.WordSize, fr.idx)
		c.Store(pk+pkN*arch.WordSize, fr.n)
		c.Store(pk+pkPay*arch.WordSize, fr.pay)
		b.capture.Push(c, int64(pk))
	}
	b.flows = ds.NewRBTree(c, c)
	b.decoded = ds.NewQueue(c, c, b.Flows+1)
}

// Parallel runs capture -> reassembly -> detection until the capture
// queue drains.
func (b *Intruder) Parallel(sys *tm.System, threads int, seed uint64) {
	var foundPerThread [][]int64
	var processedPerThread []int64
	foundPerThread = make([][]int64, threads)
	processedPerThread = make([]int64, threads)

	sys.Run(threads, seed, func(c *tm.Ctx) {
		tid := c.P.ID()
		for {
			var pk int64
			var ok bool
			c.AtomicSite("capture", func(t tm.Tx) {
				pk, ok = b.capture.Pop(t)
			})
			if !ok {
				break
			}
			b.reassemble(c, uint64(pk), tid, &foundPerThread[tid], &processedPerThread[tid])
		}
		// Drain any remaining decoded flows.
		b.detectLoop(c, tid, &foundPerThread[tid], &processedPerThread[tid])
	})

	for tid := 0; tid < threads; tid++ {
		b.processed += processedPerThread[tid]
		for _, id := range foundPerThread[tid] {
			b.found[id] = true
		}
	}
}

// reassemble is the main transaction (TID1 in the paper's Table IV).
func (b *Intruder) reassemble(c *tm.Ctx, pk uint64, tid int, found *[]int64, processed *int64) {
	flowID := c.Load(pk + pkFlow*arch.WordSize)
	fragIdx := c.Load(pk + pkIdx*arch.WordSize)
	nFrags := c.Load(pk + pkN*arch.WordSize)
	pay := c.Load(pk + pkPay*arch.WordSize)

	c.AtomicSite("reassembly", func(t tm.Tx) {
		var rec uint64
		if node := b.flows.GetNode(t, flowID); node != 0 {
			rec = uint64(ds.NodeData(t, node))
		} else {
			rec = c.Alloc(flWords)
			lst := ds.NewList(t, c)
			t.Store(rec+flList*arch.WordSize, int64(lst.Head))
			t.Store(rec+flGot*arch.WordSize, 0)
			t.Store(rec+flN*arch.WordSize, nFrags)
			t.Store(rec+flID*arch.WordSize, flowID)
			b.flows.Insert(t, c, flowID, int64(rec))
		}
		lst := ds.List{Head: uint64(t.Load(rec + flList*arch.WordSize))}
		if b.Optimized {
			// §V-A: constant-time prepend; sort later, privately.
			lst.PushFront(t, c, fragIdx, pay)
		} else {
			// Baseline: keep fragments sorted at all times (walks the
			// list inside the transaction).
			lst.Insert(t, c, fragIdx, pay)
		}
		got := t.Load(rec+flGot*arch.WordSize) + 1
		t.Store(rec+flGot*arch.WordSize, got)
		if got == nFrags {
			b.flows.Delete(t, c, flowID)
			b.decoded.Push(t, int64(rec))
		}
	})

	b.detectLoop(c, tid, found, processed)
}

// detectLoop pops completed flows and matches them against signatures.
// The flow record is private once out of the tree, so the scan is
// non-transactional (as in STAMP).
func (b *Intruder) detectLoop(c *tm.Ctx, tid int, found *[]int64, processed *int64) {
	for {
		var recI int64
		var ok bool
		c.AtomicSite("decode", func(t tm.Tx) {
			recI, ok = b.decoded.Pop(t)
		})
		if !ok {
			return
		}
		rec := uint64(recI)
		flowID := c.Load(rec + flID*arch.WordSize)
		lst := ds.List{Head: uint64(c.Load(rec + flList*arch.WordSize))}
		// Collect fragments (private data now).
		var frags []int64 // interleaved idx, pay
		lst.Each(c, func(k, d int64) bool {
			frags = append(frags, k, d)
			return true
		})
		if b.Optimized {
			// Deferred sort of the prepended fragments (simple insertion
			// sort on the private copy, charged as work).
			for i := 2; i < len(frags); i += 2 {
				j := i
				for j > 0 && frags[j-2] > frags[j] {
					frags[j-2], frags[j] = frags[j], frags[j-2]
					frags[j-1], frags[j+1] = frags[j+1], frags[j-1]
					j -= 2
				}
				c.Work(4)
			}
		}
		h := int64(0)
		for i := 0; i < len(frags); i += 2 {
			h = payloadHash(h, frags[i+1])
			c.Work(6) // signature scan work per fragment
		}
		*processed++
		if b.expected[flowID] == h && b.attackIDs[flowID] {
			*found = append(*found, flowID)
		}
		if b.expected[flowID] != h {
			// Mis-reassembly is recorded via an impossible flow id; the
			// validator will flag it.
			*found = append(*found, -flowID-1)
		}
	}
}

// Validate checks every flow was processed, reassembled in order, and all
// planted attacks were detected.
func (b *Intruder) Validate(sys *tm.System) error {
	if b.processed != int64(b.Flows) {
		return fmt.Errorf("intruder: processed %d flows, want %d", b.processed, b.Flows)
	}
	for id := range b.found {
		if id < 0 {
			return fmt.Errorf("intruder: flow %d reassembled out of order", -id-1)
		}
	}
	for id := range b.attackIDs {
		if !b.found[id] {
			return fmt.Errorf("intruder: planted attack %d not detected", id)
		}
	}
	if n := b.flows.Count(hostPeek{sys}); n != 0 {
		return fmt.Errorf("intruder: %d incomplete flows left in tree", n)
	}
	return nil
}
