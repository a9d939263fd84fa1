package stamp

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/ds"
	"rtmlab/internal/rng"
	"rtmlab/internal/tm"
)

// Bayes ports STAMP's bayes (Bayesian network structure learning) with a
// surrogate scorer: hill-climbing over candidate edge insertions, where
// each evaluation transaction reads a large slice of the observation
// table (standing in for the original's adtree queries — hundreds of
// reads over a multi-megabyte structure) before updating the network
// adjacency. This preserves the characteristics the paper's analysis
// keys on: a large working set and long transactions, which is why bayes
// favours TinySTM and fails to scale under RTM (duration and read-set
// capacity aborts).
type Bayes struct {
	Vars    int // network variables
	Records int // observation rows
	Tasks   int // candidate edges examined
	Reads   int // observation words read per evaluation

	data    uint64 // Records words (packed observations)
	adj     uint64 // Vars*Vars words
	parents uint64 // Vars words: parent counts
	tasks   ds.Queue

	applied int64
}

// NewBayes returns the benchmark at the given scale.
func NewBayes(s Scale) *Bayes {
	switch s {
	case Test:
		return &Bayes{Vars: 12, Records: 4 << 10, Tasks: 48, Reads: 256}
	case Small:
		return &Bayes{Vars: 24, Records: 64 << 10, Tasks: 128, Reads: 3000}
	default:
		return &Bayes{Vars: 32, Records: 256 << 10, Tasks: 256, Reads: 12000}
	}
}

// Name implements Benchmark.
func (b *Bayes) Name() string { return "bayes" }

// Setup generates observations and the candidate-edge task queue.
func (b *Bayes) Setup(c *tm.Ctx, seed uint64) {
	r := rng.New(seed * 8231)
	b.data = c.Alloc(b.Records)
	for i := 0; i < b.Records; i++ {
		c.Store(b.data+uint64(i)*arch.WordSize, int64(r.Uint64()>>1))
	}
	b.adj = c.Alloc(b.Vars * b.Vars)
	b.parents = c.Alloc(b.Vars)
	for i := 0; i < b.Vars*b.Vars; i++ {
		c.Store(b.adj+uint64(i)*arch.WordSize, 0)
	}
	for v := 0; v < b.Vars; v++ {
		c.Store(b.parents+uint64(v)*arch.WordSize, 0)
	}
	b.tasks = ds.NewQueue(c, c, b.Tasks+1)
	for i := 0; i < b.Tasks; i++ {
		from := int64(r.Intn(b.Vars))
		to := int64(r.Intn(b.Vars))
		if from == to {
			to = (to + 1) % int64(b.Vars)
		}
		b.tasks.Push(c, from<<32|to)
	}
	b.applied = 0
}

// Parallel evaluates the candidate edges: each evaluation is one long
// transaction reading a large sample of the observation table.
func (b *Bayes) Parallel(sys *tm.System, threads int, seed uint64) {
	applied := make([]int64, threads)
	sys.Run(threads, seed, func(c *tm.Ctx) {
		tid := c.P.ID()
		for {
			var task int64
			var ok bool
			c.AtomicSite("task", func(t tm.Tx) {
				task, ok = b.tasks.Pop(t)
			})
			if !ok {
				break
			}
			from := task >> 32
			to := task & 0xffffffff
			// appliedThis is reset per attempt so an abort after the
			// stores cannot double-count.
			appliedThis := false
			c.AtomicSite("learn", func(t tm.Tx) {
				appliedThis = false
				// The score depends on the current parent sets, so the
				// transaction subscribes to the whole parent vector up
				// front (as the original's family queries do) — every
				// concurrent structure change then conflicts with this
				// long-running reader, which is the contention profile
				// behind bayes' run-to-run deviations.
				for v := 0; v < b.Vars; v++ {
					_ = t.Load(b.parents + uint64(v)*arch.WordSize)
				}
				// Surrogate adtree scoring: a long, read-dominated scan
				// of the observation table (stride defeats locality, as
				// the original's tree walks do).
				var score int64
				stride := b.Records/b.Reads | 1
				row := int(from*31+to*17) % b.Records
				for k := 0; k < b.Reads; k++ {
					score += t.Load(b.data + uint64(row)*arch.WordSize)
					c.P.AddWork(12) // likelihood arithmetic per row
					row = (row + stride) % b.Records
				}
				// Read the current local structure.
				if t.Load(b.adj+uint64(from*int64(b.Vars)+to)*arch.WordSize) == 1 ||
					t.Load(b.adj+uint64(to*int64(b.Vars)+from)*arch.WordSize) == 1 {
					return // edge (either direction) already present
				}
				nParents := t.Load(b.parents + uint64(to)*arch.WordSize)
				// Deterministic accept rule standing in for the score
				// comparison: accept if the sampled score "improves" and
				// the parent budget allows it.
				if nParents >= 4 || (score^(from*2654435761+to))%3 == 0 {
					return
				}
				// Cycle check over the adjacency (reads up to V*V words).
				if b.reachable(t, to, from) {
					return
				}
				t.Store(b.adj+uint64(from*int64(b.Vars)+to)*arch.WordSize, 1)
				t.Store(b.parents+uint64(to)*arch.WordSize, nParents+1)
				appliedThis = true
			})
			if appliedThis {
				applied[tid]++
			}
		}
	})
	for tid := 0; tid < threads; tid++ {
		b.applied += applied[tid]
	}
}

// reachable reports whether dst is reachable from src in the current DAG
// (transactional DFS over the adjacency matrix).
func (b *Bayes) reachable(t tm.Tx, src, dst int64) bool {
	visited := make([]bool, b.Vars)
	stack := []int64{src}
	visited[src] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == dst {
			return true
		}
		for v := int64(0); v < int64(b.Vars); v++ {
			if !visited[v] && t.Load(b.adj+uint64(cur*int64(b.Vars)+v)*arch.WordSize) == 1 {
				visited[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}

// Validate checks the learned structure: acyclic, parent counts matching
// the adjacency, and at least one applied change.
func (b *Bayes) Validate(sys *tm.System) error {
	h := sys.H
	adj := func(i, j int64) bool {
		return h.Peek(b.adj+uint64(i*int64(b.Vars)+j)*arch.WordSize) == 1
	}
	// Parent counts.
	var edges int64
	for to := int64(0); to < int64(b.Vars); to++ {
		var n int64
		for from := int64(0); from < int64(b.Vars); from++ {
			if adj(from, to) {
				n++
				edges++
			}
		}
		if got := h.Peek(b.parents + uint64(to)*arch.WordSize); got != n {
			return fmt.Errorf("bayes: parents[%d] = %d, adjacency says %d", to, got, n)
		}
	}
	if edges != b.applied {
		return fmt.Errorf("bayes: %d edges, %d applied", edges, b.applied)
	}
	if b.applied == 0 {
		return fmt.Errorf("bayes: no structure learned")
	}
	// Acyclicity via Kahn's algorithm on the host.
	indeg := make([]int, b.Vars)
	for to := int64(0); to < int64(b.Vars); to++ {
		for from := int64(0); from < int64(b.Vars); from++ {
			if adj(from, to) {
				indeg[to]++
			}
		}
	}
	var queue []int64
	for v := 0; v < b.Vars; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int64(v))
		}
	}
	removed := 0
	for len(queue) > 0 {
		cur := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		removed++
		for v := int64(0); v < int64(b.Vars); v++ {
			if adj(cur, v) {
				indeg[v]--
				if indeg[v] == 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	if removed != b.Vars {
		return fmt.Errorf("bayes: learned graph has a cycle")
	}
	return nil
}
