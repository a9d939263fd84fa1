package stamp

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/rng"
	"rtmlab/internal/tm"
)

// SSCA2 ports STAMP's ssca2 kernel 1 (graph construction): a synthetic
// skewed edge list is turned into compressed adjacency arrays; the
// transactional step is the tiny degree-increment / slot-claim — short
// transactions with a small read-write set over a large working set,
// which is why the paper sees it scale well on both systems.
type SSCA2 struct {
	V, E int

	edgeSrc uint64 // E words
	edgeDst uint64 // E words
	degree  uint64 // V words (pass 1 output)
	offset  uint64 // V+1 words (prefix sums)
	fill    uint64 // V words (pass 2 cursors)
	adj     uint64 // E words (adjacency)
}

// NewSSCA2 returns the benchmark at the given scale.
func NewSSCA2(s Scale) *SSCA2 {
	switch s {
	case Test:
		return &SSCA2{V: 512, E: 2048}
	case Small:
		return &SSCA2{V: 4096, E: 16384}
	default:
		return &SSCA2{V: 32768, E: 131072}
	}
}

// Name implements Benchmark.
func (g *SSCA2) Name() string { return "ssca2" }

// Setup generates the skewed (Zipf-ish) edge list.
func (g *SSCA2) Setup(c *tm.Ctx, seed uint64) {
	r := rng.New(seed * 131)
	z := rng.NewZipf(r, g.V, 0.6)
	g.edgeSrc = c.Alloc(g.E)
	g.edgeDst = c.Alloc(g.E)
	g.degree = c.Alloc(g.V)
	g.offset = c.Alloc(g.V + 1)
	g.fill = c.Alloc(g.V)
	g.adj = c.Alloc(g.E)
	for i := 0; i < g.E; i++ {
		src := z.Next()
		dst := r.Intn(g.V)
		c.Store(g.edgeSrc+uint64(i)*arch.WordSize, int64(src))
		c.Store(g.edgeDst+uint64(i)*arch.WordSize, int64(dst))
	}
	for v := 0; v < g.V; v++ {
		c.Store(g.degree+uint64(v)*arch.WordSize, 0)
		c.Store(g.fill+uint64(v)*arch.WordSize, 0)
	}
}

// Parallel builds the adjacency arrays in two transactional passes with a
// sequential prefix-sum between them.
func (g *SSCA2) Parallel(sys *tm.System, threads int, seed uint64) {
	// Pass 1: degree counting.
	sys.Run(threads, seed, func(c *tm.Ctx) {
		lo := c.P.ID() * g.E / threads
		hi := (c.P.ID() + 1) * g.E / threads
		for i := lo; i < hi; i++ {
			src := c.Load(g.edgeSrc + uint64(i)*arch.WordSize)
			c.P.AddWork(30) // edge weight / index computation (kernel 1 math)
			c.AtomicSite("degree", func(t tm.Tx) {
				a := g.degree + uint64(src)*arch.WordSize
				t.Store(a, t.Load(a)+1)
			})
		}
	})
	// Sequential: prefix sums.
	sys.Run(1, seed, func(c *tm.Ctx) {
		sum := int64(0)
		for v := 0; v < g.V; v++ {
			c.Store(g.offset+uint64(v)*arch.WordSize, sum)
			sum += c.Load(g.degree + uint64(v)*arch.WordSize)
		}
		c.Store(g.offset+uint64(g.V)*arch.WordSize, sum)
	})
	// Pass 2: slot claiming and adjacency fill.
	sys.Run(threads, seed+1, func(c *tm.Ctx) {
		lo := c.P.ID() * g.E / threads
		hi := (c.P.ID() + 1) * g.E / threads
		for i := lo; i < hi; i++ {
			src := c.Load(g.edgeSrc + uint64(i)*arch.WordSize)
			dst := c.Load(g.edgeDst + uint64(i)*arch.WordSize)
			off := c.Load(g.offset + uint64(src)*arch.WordSize)
			c.P.AddWork(30)
			var slot int64
			c.AtomicSite("claim", func(t tm.Tx) {
				a := g.fill + uint64(src)*arch.WordSize
				slot = t.Load(a)
				t.Store(a, slot+1)
				t.Store(g.adj+uint64(off+slot)*arch.WordSize, dst)
			})
		}
	})
}

// Validate checks degrees, offsets and the adjacency multiset against the
// edge list.
func (g *SSCA2) Validate(sys *tm.System) error {
	h := sys.H
	degrees := make([]int64, g.V)
	edges := map[[2]int64]int{}
	for i := 0; i < g.E; i++ {
		src := h.Peek(g.edgeSrc + uint64(i)*arch.WordSize)
		dst := h.Peek(g.edgeDst + uint64(i)*arch.WordSize)
		degrees[src]++
		edges[[2]int64{src, dst}]++
	}
	var total int64
	for v := 0; v < g.V; v++ {
		d := h.Peek(g.degree + uint64(v)*arch.WordSize)
		if d != degrees[v] {
			return fmt.Errorf("ssca2: degree[%d] = %d, want %d", v, d, degrees[v])
		}
		if f := h.Peek(g.fill + uint64(v)*arch.WordSize); f != d {
			return fmt.Errorf("ssca2: fill[%d] = %d, want %d", v, f, d)
		}
		if off := h.Peek(g.offset + uint64(v)*arch.WordSize); off != total {
			return fmt.Errorf("ssca2: offset[%d] = %d, want %d", v, off, total)
		}
		total += d
	}
	if total != int64(g.E) {
		return fmt.Errorf("ssca2: total degree %d != E %d", total, g.E)
	}
	// Adjacency must contain exactly the edges of each vertex.
	for v := 0; v < g.V; v++ {
		off := h.Peek(g.offset + uint64(v)*arch.WordSize)
		deg := h.Peek(g.degree + uint64(v)*arch.WordSize)
		for s := int64(0); s < deg; s++ {
			dst := h.Peek(g.adj + uint64(off+s)*arch.WordSize)
			key := [2]int64{int64(v), dst}
			if edges[key] == 0 {
				return fmt.Errorf("ssca2: spurious edge %d->%d in adjacency", v, dst)
			}
			edges[key]--
		}
	}
	for k, n := range edges {
		if n != 0 {
			return fmt.Errorf("ssca2: edge %v missing from adjacency (%d left)", k, n)
		}
	}
	return nil
}
