package stamp

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/ds"
	"rtmlab/internal/rng"
	"rtmlab/internal/tm"
)

// Genome ports STAMP's genome: gene sequencing by segment deduplication
// and overlap matching. A random gene of n nucleotides (2 bits each) is
// cut into all overlapping segments of length l; phase 1 deduplicates the
// segments into a shared hash set, phase 2 links each segment to its
// unique successor via an (l-1)-gram hash table, and the final sequential
// phase walks the chain and must reproduce the original gene exactly.
//
// The profile matches the paper's description: medium transaction length
// (hash-chain walks), medium working set, low contention.
type Genome struct {
	N    int // gene length in nucleotides
	L    int // segment length (<= 31)
	S    int // number of segments = N - L + 1
	gene []byte

	segs    uint64 // S words: segment values by position (shuffled order)
	uniq    ds.HashTable
	prefix  ds.HashTable
	next    uint64 // S words: successor segment value, or -1
	hasPred ds.Bitmap
	headSeg int64 // found by the sequential phase
	rebuilt []byte
}

// NewGenome returns the benchmark at the given scale.
func NewGenome(s Scale) *Genome {
	switch s {
	case Test:
		return &Genome{N: 512, L: 12}
	case Small:
		return &Genome{N: 2048, L: 14}
	default:
		return &Genome{N: 8192, L: 16}
	}
}

// Name implements Benchmark.
func (g *Genome) Name() string { return "genome" }

const genomeMissing int64 = -1

func segPrefix(seg int64, l int) int64 { return seg & ((1 << uint(2*(l-1))) - 1) }
func segSuffix(seg int64) int64        { return seg >> 2 }

// Setup generates a gene whose (l-1)-grams are unique (resampling if
// needed), encodes the segments and shuffles their processing order.
func (g *Genome) Setup(c *tm.Ctx, seed uint64) {
	r := rng.New(seed * 977)
	g.S = g.N - g.L + 1
	for attempt := 0; ; attempt++ {
		g.gene = make([]byte, g.N)
		for i := range g.gene {
			g.gene[i] = byte(r.Intn(4))
		}
		if g.gramsUnique() {
			break
		}
		if attempt > 50 {
			panic("genome: could not generate a gene with unique (l-1)-grams")
		}
	}
	segVals := make([]int64, g.S)
	for p := 0; p < g.S; p++ {
		var v int64
		for i := g.L - 1; i >= 0; i-- {
			v = v<<2 | int64(g.gene[p+i])
		}
		segVals[p] = v
	}
	// Shuffle: the sequencer receives segments in arbitrary order.
	perm := r.Perm(g.S)
	g.segs = c.Alloc(g.S)
	for i, pi := range perm {
		c.Store(g.segs+uint64(i)*arch.WordSize, segVals[pi])
	}
	g.uniq = ds.NewHashTable(c, c, g.S/4+1)
	g.prefix = ds.NewHashTable(c, c, g.S/4+1)
	g.next = c.Alloc(g.S)
	for i := 0; i < g.S; i++ {
		c.Store(g.next+uint64(i)*arch.WordSize, genomeMissing)
	}
	g.hasPred = ds.NewBitmap(c, c, g.S)
}

func (g *Genome) gramsUnique() bool {
	seen := make(map[string]bool, g.N)
	k := g.L - 1
	for p := 0; p+k <= g.N; p++ {
		s := string(g.gene[p : p+k])
		if seen[s] {
			return false
		}
		seen[s] = true
	}
	return true
}

// Parallel runs the three sequencing phases.
func (g *Genome) Parallel(sys *tm.System, threads int, seed uint64) {
	// Phase 1: deduplicate segments into the shared hash set, recording
	// each unique segment's index.
	sys.Run(threads, seed, func(c *tm.Ctx) {
		lo := c.P.ID() * g.S / threads
		hi := (c.P.ID() + 1) * g.S / threads
		for i := lo; i < hi; i++ {
			seg := c.Load(g.segs + uint64(i)*arch.WordSize)
			c.AtomicSite("dedup", func(t tm.Tx) {
				g.uniq.Insert(t, c, seg, int64(i))
			})
		}
	})
	// Phase 2: register each unique segment under its (l-1)-prefix, then
	// link every segment to its successor through the prefix table.
	sys.Run(threads, seed+1, func(c *tm.Ctx) {
		lo := c.P.ID() * g.S / threads
		hi := (c.P.ID() + 1) * g.S / threads
		for i := lo; i < hi; i++ {
			seg := c.Load(g.segs + uint64(i)*arch.WordSize)
			c.AtomicSite("register", func(t tm.Tx) {
				g.prefix.Insert(t, c, segPrefix(seg, g.L), seg)
			})
		}
	})
	sys.Run(threads, seed+2, func(c *tm.Ctx) {
		lo := c.P.ID() * g.S / threads
		hi := (c.P.ID() + 1) * g.S / threads
		for i := lo; i < hi; i++ {
			seg := c.Load(g.segs + uint64(i)*arch.WordSize)
			c.AtomicSite("match", func(t tm.Tx) {
				succ, ok := g.prefix.Get(t, segSuffix(seg))
				if !ok {
					t.Store(g.next+uint64(i)*arch.WordSize, genomeMissing)
					return
				}
				t.Store(g.next+uint64(i)*arch.WordSize, succ)
				if idx, ok2 := g.uniq.Get(t, succ); ok2 {
					g.hasPred.Set(t, int(idx))
				}
			})
		}
	})
	// Phase 3 (sequential): find the head segment and rebuild the gene.
	sys.Run(1, seed+3, func(c *tm.Ctx) {
		head := genomeMissing
		for i := 0; i < g.S; i++ {
			if !g.hasPred.Test(c, i) {
				head = c.Load(g.segs + uint64(i)*arch.WordSize)
				g.headSeg = int64(i)
				break
			}
		}
		if head == genomeMissing {
			g.rebuilt = nil
			return
		}
		out := make([]byte, 0, g.N)
		seg := head
		idx := g.headSeg
		// Emit the head's full segment, then one char per successor.
		for i := 0; i < g.L; i++ {
			out = append(out, byte(seg>>(2*uint(i))&3))
		}
		for {
			nxt := c.Load(g.next + uint64(idx)*arch.WordSize)
			if nxt == genomeMissing {
				break
			}
			out = append(out, byte(nxt>>(2*uint(g.L-1))&3))
			idx2, ok := g.uniq.Get(c, nxt)
			if !ok {
				break
			}
			idx = idx2
			if len(out) > g.N {
				break
			}
		}
		g.rebuilt = out
	})
}

// Validate compares the reconstruction with the original gene.
func (g *Genome) Validate(sys *tm.System) error {
	if len(g.rebuilt) != g.N {
		return fmt.Errorf("genome: rebuilt %d chars, want %d", len(g.rebuilt), g.N)
	}
	for i := range g.gene {
		if g.rebuilt[i] != g.gene[i] {
			return fmt.Errorf("genome: mismatch at %d", i)
		}
	}
	// The dedup set must contain every segment exactly once.
	if n := g.uniq.Len(hostPeek{sys}); n != g.S {
		return fmt.Errorf("genome: %d unique segments, want %d", n, g.S)
	}
	return nil
}

// hostPeek adapts untimed backing-store access to ds.Mem for validation.
type hostPeek struct{ sys *tm.System }

func (h hostPeek) Load(addr uint64) int64       { return h.sys.H.Peek(addr) }
func (h hostPeek) Store(addr uint64, val int64) { h.sys.H.Poke(addr, val) }
