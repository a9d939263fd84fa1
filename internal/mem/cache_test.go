package mem

import (
	"testing"
	"unsafe"
)

// tsLRU is the timestamp LRU that cache's recency word replaced, kept
// here as the reference model: every way carries the tick of its last
// use, an insert fills the lowest empty way or else the way with the
// smallest stamp. Its tags are plain line addresses.
type tsLRU struct {
	ways int
	mask uint64
	tags []uint64
	lru  []uint64
	dir  []line
	tick uint64
}

// refEmpty marks an empty way in tsLRU.
const refEmpty = ^uint64(0)

func newTSLRU(sets, ways int) *tsLRU {
	r := &tsLRU{
		ways: ways,
		mask: uint64(sets - 1),
		tags: make([]uint64, sets*ways),
		lru:  make([]uint64, sets*ways),
		dir:  make([]line, sets*ways),
	}
	for i := range r.tags {
		r.tags[i] = refEmpty
	}
	return r
}

func (r *tsLRU) find(la uint64) int {
	base := int(la&r.mask) * r.ways
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == la {
			return i
		}
	}
	return -1
}

func (r *tsLRU) lookup(la uint64) int {
	i := r.find(la)
	if i >= 0 {
		r.tick++
		r.lru[i] = r.tick
	}
	return i
}

func (r *tsLRU) insert(la uint64) (victim uint64, evicted bool, way int) {
	base := int(la&r.mask) * r.ways
	way = -1
	for i := base; i < base+r.ways; i++ {
		if r.tags[i] == refEmpty {
			way = i
			break
		}
	}
	if way < 0 {
		way = base
		for i := base + 1; i < base+r.ways; i++ {
			if r.lru[i] < r.lru[way] {
				way = i
			}
		}
		victim, evicted = r.tags[way], true
	}
	r.tick++
	r.tags[way], r.lru[way], r.dir[way] = la, r.tick, line{owner: -1}
	return victim, evicted, way
}

func (r *tsLRU) drop(la uint64) bool {
	i := r.find(la)
	if i >= 0 {
		r.tags[i] = refEmpty
	}
	return i >= 0
}

// fuzzWays are the associativities the differential fuzz test draws
// from: every shipped and test geometry, plus the odd sizes and the
// 16-way limit of the recency word.
var fuzzWays = [...]int{1, 2, 3, 4, 8, 12, 16}

// FuzzCacheVsTimestampLRU drives cache and the timestamp reference with
// the same operation stream and compares every hit, victim and chosen
// way, plus the full tag array after each operation. data[0] picks the
// associativity, data[1] the set count (1, 2 or 4) and whether the cache
// keeps a directory; each later byte pair is one operation and its line,
// drawn from twice the cache's capacity, so sets fill, overflow and get
// holes punched by drop.
func FuzzCacheVsTimestampLRU(f *testing.F) {
	for wi := range fuzzWays {
		for _, dirByte := range []byte{0, 4} {
			seed := []byte{byte(wi), dirByte | byte(wi%3)}
			x := uint32(wi*131 + int(dirByte) + 7)
			for k := 0; k < 800; k++ {
				x = x*1664525 + 1013904223
				seed = append(seed, byte(x>>24))
			}
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways := fuzzWays[int(data[0])%len(fuzzWays)]
		sets := 1 << ((data[1] & 3) % 3)
		directory := data[1]&4 != 0
		c, ref := newCache(sets, ways, directory), newTSLRU(sets, ways)
		span := uint64(sets*ways*2 + 1) // lines in play: twice the capacity
		for i := 2; i+1 < len(data); i += 2 {
			step, b := i/2-1, data[i]
			la := uint64(data[i+1]) % span
			switch b & 7 {
			case 0, 1, 2: // fill, as the hierarchy does: only absent lines
				if ref.find(la) >= 0 {
					continue
				}
				v, ev, entry := c.insert(la)
				rv, rev, way := ref.insert(la)
				if v != rv || ev != rev {
					t.Fatalf("step %d insert(%d): victim (%d, %v), reference (%d, %v)", step, la, v, ev, rv, rev)
				}
				if directory && entry != &c.dir[way] || !directory && entry != nil {
					t.Fatalf("step %d insert(%d): entry %p, reference way %d", step, la, entry, way)
				}
			case 3, 4: // hit, refreshing recency
				hit, ri := c.lookup(la), ref.lookup(la)
				if hit != (ri >= 0) {
					t.Fatalf("step %d lookup(%d) = %v, reference way %d", step, la, hit, ri)
				}
				if directory && hit {
					d := c.lookupDir(la) // a second refresh of the same way
					ref.lookup(la)
					d.sharers |= 1 << (b >> 3)
					d.owner = int8(data[i+1])
					ref.dir[ri] = *d
				}
			case 5:
				if got, want := c.present(la), ref.find(la) >= 0; got != want {
					t.Fatalf("step %d present(%d) = %v, want %v", step, la, got, want)
				}
			case 6:
				if got, want := c.drop(la), ref.drop(la); got != want {
					t.Fatalf("step %d drop(%d) = %v, want %v", step, la, got, want)
				}
			case 7:
				if !directory {
					continue
				}
				d, ri := c.peekLine(la), ref.find(la)
				if ri < 0 && d != nil || ri >= 0 && (d != &c.dir[ri] || *d != ref.dir[ri]) {
					t.Fatalf("step %d peekLine(%d) = %p, reference way %d", step, la, d, ri)
				}
			}
			for w, tag := range c.tags {
				if ^tag != ref.tags[w] {
					t.Fatalf("step %d (byte %#x): way %d holds %d, reference %d", step, b, w, ^tag, ref.tags[w])
				}
			}
		}
	})
}

// TestDirEntryCompact pins the L3 directory entry at 8 bytes: there is
// one per L3 way (131072 on Haswell), so it sets most of a hierarchy's
// memory and of what tm.NewSystem must zero.
func TestDirEntryCompact(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n > 8 {
		t.Errorf("line is %d bytes, want <= 8", n)
	}
}
