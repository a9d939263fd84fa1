package mem

import "math/bits"

// A way's tag holds the complement of its line address, so a fresh,
// zeroed tag array is all empty ways and newCache need not write it:
// line addresses are byte addresses shifted right by the line size, so a
// complement has its top bits set and is never emptyTag.
const emptyTag = 0

// line is a directory entry: the coherence state the L3 keeps for each
// of its ways (see the package comment), 8 bytes. The private caches
// keep none.
type line struct {
	sharers uint32 // bitmask of cores holding a copy (at most 32 cores)
	owner   int8   // core holding the line in M state, -1 if none
}

// Recency-word constants: one 4-bit nibble per rank.
const (
	nibLo   = 0x1111111111111111 // 1 in every nibble
	nibHi   = 0x8888888888888888 // top bit of every nibble
	maxWays = 16                 // nibbles in a uint64
)

// cache is a set-associative presence tracker with LRU replacement. Tags
// live in their own array, so a set scan reads ways*8 contiguous bytes;
// an empty way holds emptyTag. Each set's recency order is one uint64,
// order[set]: nibble k holds the way at recency rank k, rank 0 being the
// most recently used, so a hit moves its way to the front with one
// nibble search and a splice, and a full-set insert takes its victim
// from nibble ways-1 without scanning. Empty ways keep their rank and
// are filled first, lowest index first, whatever their rank: recency
// ranks only decide between valid ways.
//
// Only the L3 keeps a directory entry per way (dir, parallel to tags);
// dir is nil in the private L1/L2, which are tags and recency alone.
//
// A single-entry memo of the last hit (last, an index into tags)
// short-circuits the scan on repeat-line accesses, which dominate
// simulated workloads. The memo is a pure hint: every use compares the
// memoized way's tag, so a stale memo costs one compare and never
// returns a wrong line.
type cache struct {
	ways     int
	lruShift uint // 4*(ways-1): the bit offset of the LRU rank's nibble
	setMask  uint64
	tags     []uint64 // sets*ways, row-major per set
	order    []uint64 // per set: the recency word
	dir      []line   // parallel to tags; nil without a directory
	last     int
}

// newCache returns an empty cache of sets*ways lines; directory gives
// each way a directory entry (the L3). sets must be a power of two and
// ways at most maxWays, as arch.Config.Validate requires.
func newCache(sets, ways int, directory bool) *cache {
	if ways < 1 || ways > maxWays {
		panic("mem: cache associativity must be 1-16 ways (one 4-bit way number per recency rank)")
	}
	c := &cache{
		ways:     ways,
		lruShift: uint(4 * (ways - 1)),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*ways),
		order:    make([]uint64, sets),
	}
	if directory {
		c.dir = make([]line, sets*ways)
	}
	var initial uint64 // way k at rank k
	for k := ways - 1; k >= 0; k-- {
		initial = initial<<4 | uint64(k)
	}
	for i := range c.order {
		c.order[i] = initial
	}
	return c
}

// find returns the index of lineAddr's way, or -1, trying the memo
// before the set scan.
//
//rtm:hot
func (c *cache) find(lineAddr uint64) int {
	tag := ^lineAddr
	if c.tags[c.last] == tag {
		return c.last
	}
	base := int(lineAddr&c.setMask) * c.ways
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return base + i
		}
	}
	return -1
}

// touch makes way the most recently used of set: it finds the way's
// nibble (the lowest zero nibble of order^way, by the SWAR zero-nibble
// test), moves the more recent ranks down one nibble and puts way at
// rank 0. It is a no-op when way is already at rank 0, which lookup
// checks first.
//
//rtm:hot
func (c *cache) touch(set uint64, way int) {
	r, w := c.order[set], uint64(way)
	x := r ^ nibLo*w
	k := bits.TrailingZeros64((x-nibLo)&^x&nibHi) &^ 3 // way's nibble
	more := uint64(1)<<(k&63) - 1                      // ranks 0..rank-1 (k < 64: &63 drops the shift guard)
	c.order[set] = r&^(more<<4|0xF) | (r&more)<<4 | w
}

// lookup reports whether lineAddr is cached; a hit becomes the set's
// most recently used way and the memo.
//
//rtm:hot
func (c *cache) lookup(lineAddr uint64) bool {
	i := c.find(lineAddr)
	if i < 0 {
		return false
	}
	c.last = i
	set := lineAddr & c.setMask
	if way := i - int(set)*c.ways; c.order[set]&0xF != uint64(way) {
		c.touch(set, way)
	}
	return true
}

// lookupDir is lookup on a directory cache: it returns lineAddr's
// directory entry, or nil on a miss.
//
//rtm:hot
func (c *cache) lookupDir(lineAddr uint64) *line {
	if !c.lookup(lineAddr) {
		return nil
	}
	return &c.dir[c.last]
}

// present reports whether lineAddr is cached, without touching recency.
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

// peekLine returns lineAddr's directory entry without recency or memo
// effects, or nil. It only reads, so shard workers may call it on the
// frozen L3 concurrently.
func (c *cache) peekLine(lineAddr uint64) *line {
	if i := c.find(lineAddr); i >= 0 {
		return &c.dir[i]
	}
	return nil
}

// insert places lineAddr into its set, in the lowest empty way or else
// over the least recently used one, and makes it the most recently
// used. It returns the evicted line address and true if an eviction
// happened, and on a directory cache the new entry, zeroed with owner -1
// (nil otherwise).
//
//rtm:hot
func (c *cache) insert(lineAddr uint64) (victim uint64, evicted bool, entry *line) {
	set := lineAddr & c.setMask
	base := int(set) * c.ways
	way := -1
	for i, t := range c.tags[base : base+c.ways] {
		if t == emptyTag {
			way = i
			break
		}
	}
	if way < 0 {
		way = int(c.order[set] >> c.lruShift & 0xF)
		victim, evicted = ^c.tags[base+way], true
	}
	c.tags[base+way] = ^lineAddr
	c.touch(set, way)
	if c.dir != nil {
		entry = &c.dir[base+way]
		*entry = line{owner: -1}
	}
	return victim, evicted, entry
}

// drop removes lineAddr if present and reports whether it was present.
// The freed way's tag becomes emptyTag, so a memo still pointing at it
// misses on its next use; its recency rank is left as it is.
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
