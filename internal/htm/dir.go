package htm

import (
	"math/bits"

	"rtmlab/internal/lineset"
)

// The tracker directory. Conflicts are detected eagerly at line
// granularity and the requester wins: a claim kills the line's foreign
// writer, plus its foreign readers when the claim is a write. The global
// directory (System.dir) and each core's slice (System.slices) are
// tables of the same track entries, so one claim, one release and one
// kill routine serve the classic probes, the mid-epoch slice claims, the
// boundary replay of deferred probes, raw-access strong atomicity and
// the L3 read-set bound.

// conflict is the abort a requester-wins conflict on line la deals its
// victim; by is the aggressor thread, -1 if none.
func conflict(la uint64, by int) Abort {
	return Abort{Status: StatusConflict | StatusRetry, Cause: CauseConflict, ConflictLine: la, ByThread: by}
}

// abort rolls tx back unless it is already gone: locally in the shard
// parallel phase (tx is then same-shard state: the caller's own
// transaction or a hyper-thread sibling's), through abortTx everywhere
// else. When tx is the caller's own, the caller delivers the panic.
func (s *System) abort(tx *Txn, a Abort) {
	if tx == nil || !tx.active {
		return
	}
	if tx.proc.ShardActive() {
		tx.localAbort(a)
		return
	}
	s.abortTx(tx, a)
}

// claim records self's read or write claim on la in tab, killing the
// conflicting claimants first (requester wins). A claim in the global
// directory runs in a classic or boundary context and also kills the
// line's conflicting slice claimants; a claim in a core's slice sees
// only that core's threads.
//
//rtm:hot
func (s *System) claim(tab *lineset.Table[track], la uint64, self int, write bool) {
	readers := write // a write claim conflicts with the readers too
	if tab == s.dir && s.slices != nil {
		// Their rollbacks can delete global entries, so they go first.
		s.killSlices(la, self, readers, false)
	}
	e, fresh := tab.Upsert(la)
	if fresh {
		e.writer = -1
	} else if e.victims(self, readers) {
		s.killEntry(*e, la, self, readers, false)
		// The victims' rollbacks delete entries, which can move ours
		// (backward-shift compaction) or drop it: re-establish it.
		if e, fresh = tab.Upsert(la); fresh {
			e.writer = -1
		}
	}
	if write {
		e.writer = int8(self)
	} else {
		e.readers |= 1 << uint(self)
	}
}

// release clears tid's claim of the given kind on la in tab, deleting
// the entry once it is empty, and reports whether tab held the claim.
//
//rtm:hot
func release(tab *lineset.Table[track], la uint64, tid int, write bool) bool {
	e := tab.Ref(la)
	if e == nil {
		return false
	}
	if write {
		if int(e.writer) != tid {
			return false
		}
		e.writer = -1
	} else {
		bit := uint32(1) << uint(tid)
		if e.readers&bit == 0 {
			return false
		}
		e.readers &^= bit
	}
	if e.readers == 0 && e.writer < 0 {
		tab.Delete(la)
	}
	return true
}

// kill aborts every claimant of la other than self — the writer, plus
// the readers if readers is set — in the directory slices first, then
// in the global directory. It runs only in boundary or classic contexts,
// where every slice is safe to read, and never yields.
func (s *System) kill(la uint64, self int, readers, evict bool) {
	if s.slices != nil {
		s.killSlices(la, self, readers, evict)
	}
	if e, ok := s.dir.Get(la); ok && e.victims(self, readers) {
		s.killEntry(e, la, self, readers, evict)
	}
}

// killSlices is kill's slice half. The slices go first because the
// victims' rollbacks can delete (and so relocate) global entries.
func (s *System) killSlices(la uint64, self int, readers, evict bool) {
	for _, sl := range s.slices {
		if sl.Len() == 0 {
			continue
		}
		if e, ok := sl.Get(la); ok && e.victims(self, readers) {
			s.killEntry(e, la, self, readers, evict)
		}
	}
}

// victims reports whether e has a claimant other than self that
// killEntry would abort: the writer, or with readers set also a reader.
func (e *track) victims(self int, readers bool) bool {
	return e.writer >= 0 && int(e.writer) != self || readers && e.readers&^(1<<uint(self)) != 0
}

// killEntry aborts e's claimants other than self: the writer, then (if
// readers is set) the readers in thread-id order. e is a value snapshot,
// since each rollback mutates and can move the live entry. Victims get
// conflict(la, self), or with evict the L3 read-set bound's aborts:
// write capacity for the writer, read capacity (reported as a conflict)
// for the readers.
//
//rtm:hot
func (s *System) killEntry(e track, la uint64, self int, readers, evict bool) {
	if e.writer >= 0 && int(e.writer) != self {
		if evict {
			s.abort(s.txs[e.writer], Abort{Status: StatusCapacity, Cause: CauseWriteCapacity, ByThread: -1})
		} else {
			s.abort(s.txs[e.writer], conflict(la, self))
		}
	}
	if !readers {
		return
	}
	rs := e.readers &^ (1 << uint(self))
	for rs != 0 {
		tid := bits.TrailingZeros32(rs)
		rs &= rs - 1
		if evict {
			s.abort(s.txs[tid], Abort{Status: StatusConflict, Cause: CauseReadCapacity, ByThread: -1})
		} else {
			s.abort(s.txs[tid], conflict(la, self))
		}
	}
}
