package ds

// Len returns the number of queued elements.
func (q Queue) Len(m Mem) int {
	return int(m.Load(w(q.Base, qTail)) - m.Load(w(q.Base, qHead)))
}

// Keys returns all keys in list order.
func (l List) Keys(m Mem) []int64 {
	var out []int64
	l.Each(m, func(k, _ int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CheckInvariants verifies the red-black properties and key ordering,
// returning a descriptive string ("" when valid).
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
