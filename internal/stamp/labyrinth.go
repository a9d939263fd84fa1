package stamp

import (
	"fmt"

	"rtmlab/internal/arch"
	"rtmlab/internal/ds"
	"rtmlab/internal/rng"
	"rtmlab/internal/tm"
)

// Labyrinth ports STAMP's labyrinth: Lee-style maze routing on a shared
// three-dimensional grid. Each routing transaction copies the entire
// global grid into a thread-private buffer (transactionally — this is the
// copy the paper identifies as the reason labyrinth cannot scale under
// RTM: the private-copy writes blow the L1-bounded write set, so every
// hardware attempt takes a capacity abort and falls back to the lock),
// runs a breadth-first expansion on the private copy, and then claims the
// found path on the shared grid, restarting if another thread took one of
// its cells first.
type Labyrinth struct {
	W, H, D int
	Paths   int

	grid  uint64 // W*H*D words: 0 free, else path id
	priv  []uint64
	work  ds.Queue // packed (src, dst) cell indices
	pairs int

	routed   []int64 // path ids successfully routed
	failures int
}

// NewLabyrinth returns the benchmark at the given scale. The Full grid is
// sized so the private copy exceeds the 512-line L1 write-set bound.
func NewLabyrinth(s Scale) *Labyrinth {
	switch s {
	case Test:
		return &Labyrinth{W: 12, H: 12, D: 2, Paths: 12}
	case Small:
		return &Labyrinth{W: 24, H: 24, D: 3, Paths: 24}
	default:
		return &Labyrinth{W: 48, H: 48, D: 3, Paths: 48}
	}
}

// Name implements Benchmark.
func (l *Labyrinth) Name() string { return "labyrinth" }

func (l *Labyrinth) cells() int { return l.W * l.H * l.D }

func (l *Labyrinth) idx(x, y, z int) int { return (z*l.H+y)*l.W + x }

func (l *Labyrinth) coords(i int) (x, y, z int) {
	x = i % l.W
	y = (i / l.W) % l.H
	z = i / (l.W * l.H)
	return
}

func packPair(src, dst int) int64   { return int64(src)<<32 | int64(dst) }
func unpackPair(v int64) (int, int) { return int(v >> 32), int(v & 0xffffffff) }

// Setup allocates the grid and the work queue of endpoint pairs.
func (l *Labyrinth) Setup(c *tm.Ctx, seed uint64) {
	r := rng.New(seed * 7321)
	l.grid = c.Alloc(l.cells())
	for i := 0; i < l.cells(); i++ {
		c.Store(l.grid+uint64(i)*arch.WordSize, 0)
	}
	l.work = ds.NewQueue(c, c, l.Paths+1)
	used := map[int]bool{}
	pick := func() int {
		for {
			i := r.Intn(l.cells())
			if !used[i] {
				used[i] = true
				return i
			}
		}
	}
	for p := 0; p < l.Paths; p++ {
		l.work.Push(c, packPair(pick(), pick()))
	}
	l.pairs = l.Paths
	l.routed = nil
	l.failures = 0
}

// Parallel routes all pairs.
func (l *Labyrinth) Parallel(sys *tm.System, threads int, seed uint64) {
	l.priv = make([]uint64, threads)
	routed := make([][]int64, threads)
	failed := make([]int, threads)

	sys.Run(threads, seed, func(c *tm.Ctx) {
		tid := c.P.ID()
		if l.priv[tid] == 0 {
			l.priv[tid] = c.Alloc(l.cells())
		}
		// Path ids only need to be unique and positive, so each thread
		// mints them in its own space — a shared Go-side counter here
		// would race between engine shards.
		nextID := int64(0)
		for {
			var pair int64
			var ok bool
			c.AtomicSite("grab", func(t tm.Tx) {
				pair, ok = l.work.Pop(t)
			})
			if !ok {
				break
			}
			src, dst := unpackPair(pair)
			nextID++
			id := int64(tid+1)<<32 | nextID
			success := false
			c.AtomicSite("route", func(t tm.Tx) {
				success = l.route(c, t, tid, src, dst, id)
			})
			if success {
				routed[tid] = append(routed[tid], id)
			} else {
				failed[tid]++
			}
		}
	})
	for tid := 0; tid < threads; tid++ {
		l.routed = append(l.routed, routed[tid]...)
		l.failures += failed[tid]
	}
}

// route is one routing transaction: grid copy, BFS on the copy, path
// claim. Returns false if no path exists in the current grid state.
func (l *Labyrinth) route(c *tm.Ctx, t tm.Tx, tid int, src, dst int, id int64) bool {
	n := l.cells()
	priv := l.priv[tid]
	// Grid copy and expansion use *unprotected* accesses, exactly like
	// STAMP's labyrinth (its grid copy is a plain memcpy inside the
	// transaction and the router revalidates the path cells at claim
	// time). Under TinySTM these accesses cost nothing and add nothing to
	// the read set, so routing transactions stay small; under RTM the
	// hardware tracks them anyway — there is no way to hide a load from
	// TSX — which is why the paper sees capacity aborts and no scaling.
	for i := 0; i < n; i++ {
		v := c.Load(l.grid + uint64(i)*arch.WordSize)
		c.Store(priv+uint64(i)*arch.WordSize, v)
	}
	// BFS expansion on the private copy (Lee algorithm): distances are
	// written into the private buffer as negative numbers.
	if c.Load(priv+uint64(dst)*arch.WordSize) != 0 || c.Load(priv+uint64(src)*arch.WordSize) != 0 {
		return false // endpoint already occupied
	}
	queue := []int{src}
	c.Store(priv+uint64(src)*arch.WordSize, -1) // distance 1
	found := false
	for qi := 0; qi < len(queue) && !found; qi++ {
		cur := queue[qi]
		dist := -c.Load(priv + uint64(cur)*arch.WordSize)
		x, y, z := l.coords(cur)
		for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			nx, ny, nz := x+d[0], y+d[1], z+d[2]
			if nx < 0 || nx >= l.W || ny < 0 || ny >= l.H || nz < 0 || nz >= l.D {
				continue
			}
			ni := l.idx(nx, ny, nz)
			if c.Load(priv+uint64(ni)*arch.WordSize) != 0 {
				continue
			}
			c.Store(priv+uint64(ni)*arch.WordSize, -(dist + 1))
			if ni == dst {
				found = true
				break
			}
			queue = append(queue, ni)
		}
	}
	if !found {
		return false
	}
	// Traceback from dst to src on the private copy, claiming the path on
	// the shared grid with *protected* accesses; restart if a cell was
	// taken since the (unprotected, possibly stale) copy.
	cur := dst
	for cur != src {
		if t.Load(l.grid+uint64(cur)*arch.WordSize) != 0 {
			t.Restart()
		}
		t.Store(l.grid+uint64(cur)*arch.WordSize, id)
		dist := -c.Load(priv + uint64(cur)*arch.WordSize)
		x, y, z := l.coords(cur)
		next := -1
		for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
			nx, ny, nz := x+d[0], y+d[1], z+d[2]
			if nx < 0 || nx >= l.W || ny < 0 || ny >= l.H || nz < 0 || nz >= l.D {
				continue
			}
			ni := l.idx(nx, ny, nz)
			if -c.Load(priv+uint64(ni)*arch.WordSize) == dist-1 {
				next = ni
				break
			}
		}
		if next < 0 {
			t.Restart() // inconsistent copy: retry
		}
		cur = next
	}
	if t.Load(l.grid+uint64(src)*arch.WordSize) != 0 {
		t.Restart()
	}
	t.Store(l.grid+uint64(src)*arch.WordSize, id)
	return true
}

// Validate checks that every routed path forms a connected corridor of
// its own id and that ids never overlap.
func (l *Labyrinth) Validate(sys *tm.System) error {
	h := sys.H
	if len(l.routed)+l.failures != l.pairs {
		return fmt.Errorf("labyrinth: %d routed + %d failed != %d pairs",
			len(l.routed), l.failures, l.pairs)
	}
	if len(l.routed) == 0 {
		return fmt.Errorf("labyrinth: no path routed at all")
	}
	cellsOf := map[int64][]int{}
	for i := 0; i < l.cells(); i++ {
		v := h.Peek(l.grid + uint64(i)*arch.WordSize)
		if v < 0 {
			return fmt.Errorf("labyrinth: negative cell value leaked at %d", i)
		}
		if v > 0 {
			cellsOf[v] = append(cellsOf[v], i)
		}
	}
	if len(cellsOf) != len(l.routed) {
		return fmt.Errorf("labyrinth: %d ids on grid, %d routed", len(cellsOf), len(l.routed))
	}
	for _, id := range l.routed {
		cells := cellsOf[id]
		if len(cells) == 0 {
			return fmt.Errorf("labyrinth: routed id %d missing from grid", id)
		}
		// Connectivity: every cell of the path reaches every other
		// through same-id neighbours.
		set := map[int]bool{}
		for _, ci := range cells {
			set[ci] = true
		}
		visited := map[int]bool{cells[0]: true}
		stack := []int{cells[0]}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y, z := l.coords(cur)
			for _, d := range [][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}} {
				nx, ny, nz := x+d[0], y+d[1], z+d[2]
				if nx < 0 || nx >= l.W || ny < 0 || ny >= l.H || nz < 0 || nz >= l.D {
					continue
				}
				ni := l.idx(nx, ny, nz)
				if set[ni] && !visited[ni] {
					visited[ni] = true
					stack = append(stack, ni)
				}
			}
		}
		if len(visited) != len(cells) {
			return fmt.Errorf("labyrinth: path %d disconnected (%d of %d cells)", id, len(visited), len(cells))
		}
	}
	return nil
}
