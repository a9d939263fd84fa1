// TL2 (Dice, Shalev, Shavit: "Transactional Locking II") — commit-time
// locking over the same versioned-lock array and global clock TinySTM
// uses, but with a lazy locking discipline:
//
//   - Reads check the lock word against the snapshot (locked or newer
//     version → abort; classic TL2 has no snapshot extension) and record
//     (lock, version) pairs.
//   - Writes only buffer: no lock traffic, no aborts, until commit.
//   - Commit acquires the write-set locks in log order, increments the
//     global clock, validates the read set against the snapshot (unless
//     no one committed in between), writes back and releases with the
//     commit version.
//
// Compared to encounter-time locking, transactions hold locks only for
// the short commit window, so doomed readers are never blocked by a
// writer that has not decided to commit yet — at the price of discarding
// more work when a conflict does surface (it is detected at commit, not
// at first write). The lock array is shared with TinySTM, so TL2 keeps
// the ≈16 MB false-conflict onset and its lock-line cache traffic.

package stm

type tl2 struct{}

// Begin samples the global clock, exactly like TinySTM.
func (tl2) Begin(t *Txn) {
	t.rv = wordVersion(t.proc.Load(t.sys.clockAddr))
}

// Load: check the lock word against the snapshot, read, revalidate.
//
//rtm:hot
func (tl2) Load(t *Txn, addr uint64) int64 {
	s := t.sys
	lockAddr := s.lockOf(addr)
	for {
		// Lock probe overlapped with the data access, as in TinySTM.
		w := t.proc.LoadOverlapped(lockAddr)
		if isLocked(w) {
			// Commit-time locking: a held lock means another thread is
			// inside its commit write-back; the value is unstable.
			t.abort(ReasonLocked, lockOwner(w), lockAddr)
		}
		ver := wordVersion(w)
		if ver > t.rv {
			// Classic TL2 has no snapshot extension: a post-snapshot
			// version means the read view is stale.
			t.noteValidationFail()
			t.abort(ReasonValidation, -1, lockAddr)
		}
		if s.pt != nil {
			s.pt.Service(t.proc, addr)
		}
		v := t.proc.Load(addr)
		// Revalidate: the lock must be unchanged across the data read.
		if t.proc.PeekShared(lockAddr) != w {
			continue
		}
		t.reads = append(t.reads, readEntry{lockAddr: lockAddr, version: ver})
		return v
	}
}

// Store only buffers (lazy locking): no metadata traffic before commit.
//
//rtm:hot
func (tl2) Store(t *Txn, addr uint64, val int64) {
	t.putWrite(addr, val)
}

func (tl2) Commit(t *Txn) {
	if t.proc.ShardActive() {
		// Lock acquisition, clock increment, validation, write-back and
		// release form one atomic sequence; park it as a boundary op.
		t.proc.Exclusive(t.commitFn)
		return
	}
	t.commitTL2()
}

func (tl2) shardInit(t *Txn) {
	t.commitFn = func() { t.commitTL2() }
}

// commitTL2 is the writing-commit sequence. Under the sharded engine it
// executes serially at an epoch boundary; the sequence (and its cycle
// charges) is identical either way.
func (t *Txn) commitTL2() {
	s := t.sys
	// Acquire the write-set locks in log order (deterministic replay).
	// A held lock aborts immediately — bounded spinning degenerates to
	// abort-and-retry under the deterministic backoff policy.
	for _, we := range t.writes {
		lockAddr := s.lockOf(we.addr)
		if t.ownedIdx.Contains(lockAddr) {
			continue // colliding address, lock already ours
		}
		for {
			w := t.proc.Load(lockAddr)
			if isLocked(w) {
				t.abort(ReasonLocked, lockOwner(w), lockAddr)
			}
			// CAS emulation: Peek+Store is the atomic step (see
			// acquireTiny).
			if s.h.Peek(lockAddr) != w {
				continue
			}
			t.proc.Store(lockAddr, lockedWord(t.proc.ID()))
			t.ownedIdx.Put(lockAddr, int32(len(t.owned)))
			t.owned = append(t.owned, ownedEntry{lockAddr: lockAddr, version: wordVersion(w)})
			break
		}
	}
	// Increment the global clock.
	var cv uint64
	for {
		old := t.proc.Load(s.clockAddr)
		if s.h.Peek(s.clockAddr) != old {
			continue
		}
		cv = wordVersion(old) + 1
		t.proc.Store(s.clockAddr, versionWord(cv))
		break
	}
	// Validate the read set unless no transaction committed since the
	// snapshot. Unlike TinySTM's validate, a read entry whose lock we
	// now own at commit time must still match the version saved when the
	// lock was acquired — the lock was taken long after the read, so
	// ownership alone proves nothing.
	if cv > t.rv+1 && !t.validateTL2() {
		t.abort(ReasonValidation, -1, 0)
	}
	// Write back in program order, release with the commit version.
	for _, we := range t.writes {
		if s.pt != nil {
			s.pt.Service(t.proc, we.addr)
		}
		t.proc.AddCycles(s.cfg.STM.CommitPerWrite)
		t.proc.Store(we.addr, we.val)
	}
	for _, oe := range t.owned {
		t.proc.Store(oe.lockAddr, versionWord(cv))
	}
	t.finish()
	s.Counters.Inc(t.proc.ID(), "stm:commit")
}

// validateTL2 checks every read entry against the current lock words.
// Locks held by this transaction (acquired during commit) compare the
// version captured at acquisition time instead.
func (t *Txn) validateTL2() bool {
	s := t.sys
	t.proc.AddCycles(uint64(len(t.reads)) * s.cfg.STM.ValidatePerRead)
	for _, re := range t.reads {
		w := t.proc.PeekShared(re.lockAddr)
		if isLocked(w) {
			i, ok := t.ownedIdx.Get(re.lockAddr)
			if !ok || t.owned[i].version != re.version {
				t.noteValidationFail()
				return false
			}
			continue
		}
		if wordVersion(w) != re.version {
			t.noteValidationFail()
			return false
		}
	}
	return true
}
