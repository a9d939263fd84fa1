package mem

// CachedIn reports which levels currently hold la for the given core
// (L1, L2) and whether L3 holds it at all.
func (h *Hierarchy) CachedIn(core int, la uint64) (inL1, inL2, inL3 bool) {
	return h.l1[core].present(la), h.l2[core].present(la), h.l3.present(la)
}

// L3Sharers returns the sharer mask and owner core (-1 if none) for la, or
// (0, -1) if the line is not in L3.
func (h *Hierarchy) L3Sharers(la uint64) (sharers uint64, owner int) {
	if dir := h.l3.peekLine(la); dir != nil {
		return uint64(dir.sharers), int(dir.owner)
	}
	return 0, -1
}

// count returns the number of valid entries.
func (c *cache) count() int {
	n := 0
	for _, t := range c.tags {
		if t != emptyTag {
			n++
		}
	}
	return n
}

// Pages returns the number of materialised pages.
func (m *Memory) Pages() int {
	n := 0
	for _, dir := range m.dirs {
		for _, p := range dir {
			if p != nil {
				n++
			}
		}
	}
	return n
}
