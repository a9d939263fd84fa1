package ds

// RBTree is STAMP's red-black tree (lib/rbtree.c), the backbone of the
// intruder and vacation benchmarks. It is a textbook CLRS red-black tree
// with a nil sentinel, storing (key, data) pairs with unique keys.
//
// Header layout: [root, nil]; node layout: [left, right, parent, color,
// key, data].
type RBTree struct {
	Base uint64
	nil_ uint64
}

const (
	tRoot = 0
	tNil  = 1

	nLeft   = 0
	nRight  = 1
	nParent = 2
	nColor  = 3
	nKey    = 4
	nData   = 5
	// RBNodeWords is the allocation size of one tree node.
	RBNodeWords = 6
)

const (
	black int64 = 0
	red   int64 = 1
)

// NewRBTree allocates an empty tree.
func NewRBTree(m Mem, al Allocator) RBTree {
	base := al.AllocAligned(2)
	nilN := al.AllocAligned(RBNodeWords)
	m.Store(w(nilN, nLeft), a2i(nilN))
	m.Store(w(nilN, nRight), a2i(nilN))
	m.Store(w(nilN, nParent), a2i(nilN))
	m.Store(w(nilN, nColor), black)
	m.Store(w(nilN, nKey), 0)
	m.Store(w(nilN, nData), 0)
	m.Store(w(base, tRoot), a2i(nilN))
	m.Store(w(base, tNil), a2i(nilN))
	return RBTree{Base: base, nil_: nilN}
}

func (t RBTree) root(m Mem) uint64       { return i2a(m.Load(w(t.Base, tRoot))) }
func (t RBTree) setRoot(m Mem, n uint64) { m.Store(w(t.Base, tRoot), a2i(n)) }
func left(m Mem, n uint64) uint64        { return i2a(m.Load(w(n, nLeft))) }
func right(m Mem, n uint64) uint64       { return i2a(m.Load(w(n, nRight))) }
func parent(m Mem, n uint64) uint64      { return i2a(m.Load(w(n, nParent))) }
func color(m Mem, n uint64) int64        { return m.Load(w(n, nColor)) }
func key(m Mem, n uint64) int64          { return m.Load(w(n, nKey)) }
func setLeft(m Mem, n, v uint64)         { m.Store(w(n, nLeft), a2i(v)) }
func setRight(m Mem, n, v uint64)        { m.Store(w(n, nRight), a2i(v)) }
func setParent(m Mem, n, v uint64)       { m.Store(w(n, nParent), a2i(v)) }
func setColor(m Mem, n uint64, c int64)  { m.Store(w(n, nColor), c) }

// find returns the node with the given key, or the nil sentinel.
func (t RBTree) find(m Mem, k int64) uint64 {
	cur := t.root(m)
	for cur != t.nil_ {
		ck := key(m, cur)
		switch {
		case k == ck:
			return cur
		case k < ck:
			cur = left(m, cur)
		default:
			cur = right(m, cur)
		}
	}
	return t.nil_
}

// Get returns the data stored under key.
func (t RBTree) Get(m Mem, k int64) (data int64, ok bool) {
	n := t.find(m, k)
	if n == t.nil_ {
		return 0, false
	}
	return m.Load(w(n, nData)), true
}

// Contains reports whether key is present.
func (t RBTree) Contains(m Mem, k int64) bool { return t.find(m, k) != t.nil_ }

// GetNode returns the node address for key (0 if absent). Callers can use
// NodeData to avoid redundant lookups — the vacation
// optimization of §V-B.
func (t RBTree) GetNode(m Mem, k int64) uint64 {
	n := t.find(m, k)
	if n == t.nil_ {
		return 0
	}
	return n
}

// NodeData reads the data field of a node returned by GetNode.
func NodeData(m Mem, node uint64) int64 { return m.Load(w(node, nData)) }

func (t RBTree) leftRotate(m Mem, x uint64) {
	y := right(m, x)
	yl := left(m, y)
	setRight(m, x, yl)
	if yl != t.nil_ {
		setParent(m, yl, x)
	}
	xp := parent(m, x)
	setParent(m, y, xp)
	if xp == t.nil_ {
		t.setRoot(m, y)
	} else if x == left(m, xp) {
		setLeft(m, xp, y)
	} else {
		setRight(m, xp, y)
	}
	setLeft(m, y, x)
	setParent(m, x, y)
}

func (t RBTree) rightRotate(m Mem, x uint64) {
	y := left(m, x)
	yr := right(m, y)
	setLeft(m, x, yr)
	if yr != t.nil_ {
		setParent(m, yr, x)
	}
	xp := parent(m, x)
	setParent(m, y, xp)
	if xp == t.nil_ {
		t.setRoot(m, y)
	} else if x == right(m, xp) {
		setRight(m, xp, y)
	} else {
		setLeft(m, xp, y)
	}
	setRight(m, y, x)
	setParent(m, x, y)
}

// Insert adds (key, data); it returns false (tree unchanged) if the key
// already exists.
func (t RBTree) Insert(m Mem, al Allocator, k, data int64) bool {
	y := t.nil_
	x := t.root(m)
	for x != t.nil_ {
		y = x
		xk := key(m, x)
		if k == xk {
			return false
		}
		if k < xk {
			x = left(m, x)
		} else {
			x = right(m, x)
		}
	}
	z := al.Alloc(RBNodeWords)
	m.Store(w(z, nKey), k)
	m.Store(w(z, nData), data)
	setLeft(m, z, t.nil_)
	setRight(m, z, t.nil_)
	setParent(m, z, y)
	setColor(m, z, red)
	if y == t.nil_ {
		t.setRoot(m, z)
	} else if k < key(m, y) {
		setLeft(m, y, z)
	} else {
		setRight(m, y, z)
	}
	t.insertFixup(m, z)
	return true
}

func (t RBTree) insertFixup(m Mem, z uint64) {
	for {
		zp := parent(m, z)
		if color(m, zp) != red {
			break
		}
		zpp := parent(m, zp)
		if zp == left(m, zpp) {
			y := right(m, zpp)
			if color(m, y) == red {
				setColor(m, zp, black)
				setColor(m, y, black)
				setColor(m, zpp, red)
				z = zpp
				continue
			}
			if z == right(m, zp) {
				z = zp
				t.leftRotate(m, z)
				zp = parent(m, z)
				zpp = parent(m, zp)
			}
			setColor(m, zp, black)
			setColor(m, zpp, red)
			t.rightRotate(m, zpp)
		} else {
			y := left(m, zpp)
			if color(m, y) == red {
				setColor(m, zp, black)
				setColor(m, y, black)
				setColor(m, zpp, red)
				z = zpp
				continue
			}
			if z == left(m, zp) {
				z = zp
				t.rightRotate(m, z)
				zp = parent(m, z)
				zpp = parent(m, zp)
			}
			setColor(m, zp, black)
			setColor(m, zpp, red)
			t.leftRotate(m, zpp)
		}
	}
	setColor(m, t.root(m), black)
}

func (t RBTree) minimum(m Mem, n uint64) uint64 {
	for left(m, n) != t.nil_ {
		n = left(m, n)
	}
	return n
}

// transplant replaces subtree u with subtree v. The nil sentinel is never
// written: it is shared by every transaction on the tree, and a write
// would turn all concurrent readers into conflicts (the C original keeps
// its sentinel read-only for exactly this reason). Delete/deleteFixup
// track x's parent explicitly instead.
func (t RBTree) transplant(m Mem, u, v uint64) {
	up := parent(m, u)
	if up == t.nil_ {
		t.setRoot(m, v)
	} else if u == left(m, up) {
		setLeft(m, up, v)
	} else {
		setRight(m, up, v)
	}
	if v != t.nil_ {
		setParent(m, v, up)
	}
}

// Delete removes key, reporting whether it was present. The node is freed.
func (t RBTree) Delete(m Mem, al Allocator, k int64) bool {
	z := t.find(m, k)
	if z == t.nil_ {
		return false
	}
	y := z
	yOrigColor := color(m, y)
	var x, xp uint64 // x may be the nil sentinel; xp is its logical parent
	if left(m, z) == t.nil_ {
		x = right(m, z)
		xp = parent(m, z)
		t.transplant(m, z, x)
	} else if right(m, z) == t.nil_ {
		x = left(m, z)
		xp = parent(m, z)
		t.transplant(m, z, x)
	} else {
		y = t.minimum(m, right(m, z))
		yOrigColor = color(m, y)
		x = right(m, y)
		if parent(m, y) == z {
			xp = y
			if x != t.nil_ {
				setParent(m, x, y)
			}
		} else {
			xp = parent(m, y)
			t.transplant(m, y, x)
			zr := right(m, z)
			setRight(m, y, zr)
			setParent(m, zr, y)
		}
		t.transplant(m, z, y)
		zl := left(m, z)
		setLeft(m, y, zl)
		setParent(m, zl, y)
		setColor(m, y, color(m, z))
	}
	if yOrigColor == black {
		t.deleteFixup(m, x, xp)
	}
	al.Free(z, RBNodeWords)
	return true
}

// deleteFixup restores the red-black properties. x may be the nil
// sentinel, so its parent is carried in xp rather than read from the node.
func (t RBTree) deleteFixup(m Mem, x, xp uint64) {
	for x != t.root(m) && color(m, x) == black {
		if x == left(m, xp) {
			wn := right(m, xp)
			if color(m, wn) == red {
				setColor(m, wn, black)
				setColor(m, xp, red)
				t.leftRotate(m, xp) // xp remains x's parent after the rotation
				wn = right(m, xp)
			}
			if color(m, left(m, wn)) == black && color(m, right(m, wn)) == black {
				setColor(m, wn, red)
				x = xp
				xp = parent(m, x)
			} else {
				if color(m, right(m, wn)) == black {
					setColor(m, left(m, wn), black)
					setColor(m, wn, red)
					t.rightRotate(m, wn)
					wn = right(m, xp)
				}
				setColor(m, wn, color(m, xp))
				setColor(m, xp, black)
				setColor(m, right(m, wn), black)
				t.leftRotate(m, xp)
				x = t.root(m)
				xp = t.nil_
			}
		} else {
			wn := left(m, xp)
			if color(m, wn) == red {
				setColor(m, wn, black)
				setColor(m, xp, red)
				t.rightRotate(m, xp)
				wn = left(m, xp)
			}
			if color(m, right(m, wn)) == black && color(m, left(m, wn)) == black {
				setColor(m, wn, red)
				x = xp
				xp = parent(m, x)
			} else {
				if color(m, left(m, wn)) == black {
					setColor(m, right(m, wn), black)
					setColor(m, wn, red)
					t.leftRotate(m, wn)
					wn = left(m, xp)
				}
				setColor(m, wn, color(m, xp))
				setColor(m, xp, black)
				setColor(m, left(m, wn), black)
				t.rightRotate(m, xp)
				x = t.root(m)
				xp = t.nil_
			}
		}
	}
	if x != t.nil_ {
		setColor(m, x, black)
	}
}

// Each walks the tree in order, calling fn for each (key, data); fn
// returning false stops the walk.
func (t RBTree) Each(m Mem, fn func(k, data int64) bool) {
	var walk func(n uint64) bool
	walk = func(n uint64) bool {
		if n == t.nil_ {
			return true
		}
		if !walk(left(m, n)) {
			return false
		}
		if !fn(key(m, n), m.Load(w(n, nData))) {
			return false
		}
		return walk(right(m, n))
	}
	walk(t.root(m))
}

// Count returns the number of keys.
func (t RBTree) Count(m Mem) int {
	n := 0
	t.Each(m, func(_, _ int64) bool { n++; return true })
	return n
}

// CheckInvariants verifies the red-black properties and key ordering,
// returning a descriptive string ("" when valid). Test helper.
func (t RBTree) CheckInvariants(m Mem) string {
	rootN := t.root(m)
	if rootN == t.nil_ {
		return ""
	}
	if color(m, rootN) != black {
		return "root is not black"
	}
	var res string
	var check func(n uint64, lo, hi *int64) int
	check = func(n uint64, lo, hi *int64) int {
		if n == t.nil_ {
			return 1
		}
		k := key(m, n)
		if lo != nil && k <= *lo {
			res = "key ordering violated (left)"
			return 0
		}
		if hi != nil && k >= *hi {
			res = "key ordering violated (right)"
			return 0
		}
		c := color(m, n)
		if c == red {
			if color(m, left(m, n)) == red || color(m, right(m, n)) == red {
				res = "red node with red child"
				return 0
			}
		}
		lb := check(left(m, n), lo, &k)
		rb := check(right(m, n), &k, hi)
		if res != "" {
			return 0
		}
		if lb != rb {
			res = "black height mismatch"
			return 0
		}
		if c == black {
			return lb + 1
		}
		return lb
	}
	check(rootN, nil, nil)
	return res
}
