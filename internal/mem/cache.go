package mem

// emptyTag marks an empty way. Line addresses are byte addresses shifted
// right by the line size, so no line has this tag.
const emptyTag = ^uint64(0)

// line is the per-way state besides the tag: an LRU timestamp, plus the
// coherence state, which is kept in the L3 directory (see the package
// comment).
type line struct {
	lru uint64
	// Directory fields, used by the L3 instance only.
	sharers uint64 // bitmask of cores holding a copy
	owner   int8   // core holding the line in M state, -1 if none
}

// cache is a set-associative presence tracker with LRU replacement. Tags
// live in their own array, so a set scan reads ways*8 contiguous bytes;
// an empty way holds emptyTag. A single-entry memo of the last hit (last,
// an index into tags) short-circuits the scan on repeat-line accesses,
// which dominate simulated workloads. The memo is a pure hint: every use
// compares the memoized way's tag, so a stale memo costs one compare and
// never returns a wrong line.
type cache struct {
	sets    int
	ways    int
	setMask uint64
	tags    []uint64 // sets*ways, row-major per set
	lines   []line   // parallel to tags
	tick    uint64
	last    int
}

func newCache(sets, ways int) *cache {
	c := &cache{
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
		lines:   make([]line, sets*ways),
	}
	for i := range c.tags {
		c.tags[i] = emptyTag
	}
	return c
}

// find returns the index of lineAddr's way, or -1, trying the memo
// before the set scan.
//
//rtm:hot
func (c *cache) find(lineAddr uint64) int {
	if c.tags[c.last] == lineAddr {
		return c.last
	}
	base := int(lineAddr&c.setMask) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == lineAddr {
			return base + i
		}
	}
	return -1
}

// lookup returns the entry for lineAddr, or nil on a miss. On a hit the LRU
// stamp is refreshed.
//
//rtm:hot
func (c *cache) lookup(lineAddr uint64) *line {
	i := c.find(lineAddr)
	if i < 0 {
		return nil
	}
	c.last = i
	c.tick++
	c.lines[i].lru = c.tick
	return &c.lines[i]
}

// present reports whether lineAddr is cached, without touching LRU state.
// A hit refreshes the memo (always safe: every use compares the tag).
//
//rtm:hot
func (c *cache) present(lineAddr uint64) bool {
	i := c.find(lineAddr)
	if i < 0 {
		return false
	}
	c.last = i
	return true
}

// peekLine returns the entry for lineAddr without LRU or memo effects, or
// nil. It only reads, so shard workers may call it on the frozen L3
// concurrently.
func (c *cache) peekLine(lineAddr uint64) *line {
	if i := c.find(lineAddr); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// insert places lineAddr into its set, in the first empty way or else
// over the LRU entry. It returns the evicted line address and true if an
// eviction happened. The new entry's directory fields are zeroed (owner
// -1).
//
//rtm:hot
func (c *cache) insert(lineAddr uint64) (victim uint64, evicted bool, entry *line) {
	base := int(lineAddr&c.setMask) * c.ways
	vi := -1
	for i, t := range c.tags[base : base+c.ways] {
		if t == emptyTag {
			vi = base + i
			break
		}
	}
	if vi < 0 {
		vi = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.lines[i].lru < c.lines[vi].lru {
				vi = i
			}
		}
		victim, evicted = c.tags[vi], true
	}
	c.tick++
	c.tags[vi] = lineAddr
	c.lines[vi] = line{lru: c.tick, owner: -1}
	return victim, evicted, &c.lines[vi]
}

// drop removes lineAddr if present and reports whether it was present.
// The freed way's tag becomes emptyTag, so a memo still pointing at it
// misses on its next use.
//
//rtm:hot
func (c *cache) drop(lineAddr uint64) bool {
	i := c.find(lineAddr)
	if i < 0 {
		return false
	}
	c.tags[i] = emptyTag
	return true
}

// count returns the number of valid entries (for tests).
func (c *cache) count() int {
	n := 0
	for _, t := range c.tags {
		if t != emptyTag {
			n++
		}
	}
	return n
}
