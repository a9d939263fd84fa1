// TinySTM (Felber, Fetzer, Marlier, Riegel: "Time-Based Software
// Transactional Memory") — word-based, time-based, write-back with
// encounter-time locking; the software TM the paper compares RTM
// against, and the default protocol.
//
//   - Reads sample the versioned lock, read the value, revalidate the
//     lock, and extend the snapshot when a newer version is seen
//     (time-based opacity).
//   - Writes acquire the versioned lock at encounter time and buffer
//     the value until commit (write-back).
//   - Commit increments the global clock, validates the read set if
//     anyone committed since the snapshot, publishes the write buffer
//     and releases the locks with the new version.
//   - False conflicts arise when distinct addresses hash to the same
//     lock entry — with the default 2^21 entries the lock array covers
//     16 MB of distinct words, which is where the paper observes
//     TinySTM's false-conflict rate rising sharply.

package stm

type tinySTM struct{}

// Begin samples the global clock (a real, timed load — the clock line
// shared by every thread is the classic TinySTM scalability bottleneck).
func (tinySTM) Begin(t *Txn) {
	t.rv = wordVersion(t.proc.Load(t.sys.clockAddr))
}

// Load: sample lock, read data, revalidate lock, extending the snapshot
// when a newer version is seen.
//
//rtm:hot
func (tinySTM) Load(t *Txn, addr uint64) int64 {
	s := t.sys
	lockAddr := s.lockOf(addr)
	for {
		// The lock read is independent of the data read, so its latency
		// overlaps (ILP); the cache still sees the access.
		w := t.proc.LoadOverlapped(lockAddr)
		if isLocked(w) {
			if t.ownedIdx.Contains(lockAddr) {
				// Lock owned by us for a colliding address; memory still
				// holds the committed value (write-back).
				if s.pt != nil {
					s.pt.Service(t.proc, addr)
				}
				return t.proc.Load(addr)
			}
			t.abort(ReasonLocked, lockOwner(w), lockAddr)
		}
		ver := wordVersion(w)
		if ver > t.rv {
			if !t.extend() {
				t.abort(ReasonValidation, -1, lockAddr)
			}
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

// Store acquires the versioned lock at encounter time, then buffers the
// value (write-back).
//
//rtm:hot
func (tinySTM) Store(t *Txn, addr uint64, val int64) {
	s := t.sys
	lockAddr := s.lockOf(addr)
	if t.ownedIdx.Contains(lockAddr) {
		t.putWrite(addr, val)
		return
	}
	t.sAddr = lockAddr
	if t.proc.ShardActive() {
		// Locked-abort fast path (ownership classifier): when the epoch
		// view already shows a holder, the acquisition is doomed under
		// this epoch's frozen state — abort right here with the same
		// timed lock-word read acquireTiny would charge, instead of
		// parking the whole attempt for the boundary. A holder that
		// releases at an earlier boundary slot would have let the parked
		// CAS win; the local abort trades that near-miss for keeping the
		// spin-retry loop (backoff, re-read of the cached lock line)
		// entirely inside the epoch.
		if w := t.proc.PeekShared(lockAddr); isLocked(w) {
			t.proc.Load(lockAddr)
			t.abort(ReasonLocked, lockOwner(w), lockAddr)
		}
		// The CAS needs Peek+Store atomicity against the live lock word;
		// park it as an exclusive boundary op (acquireTiny, unchanged).
		t.proc.Exclusive(t.acquireFn)
	} else {
		t.acquireTiny()
	}
	t.ownedIdx.Put(lockAddr, int32(len(t.owned)))
	t.owned = append(t.owned, ownedEntry{lockAddr: lockAddr, version: t.sVer})
	t.putWrite(addr, val)
}

func (tinySTM) Commit(t *Txn) {
	if t.proc.ShardActive() {
		// Clock increment, validation, write-back and lock release form
		// one atomic sequence; park it as an exclusive boundary op.
		t.proc.Exclusive(t.commitFn)
		return
	}
	t.commitTiny()
}

func (tinySTM) shardInit(t *Txn) {
	t.acquireFn = func() { t.acquireTiny() }
	t.commitFn = func() { t.commitTiny() }
}

// acquireTiny runs the encounter-time lock acquisition for the lock word
// in t.sAddr, leaving the pre-acquisition version in t.sVer. Under the
// sharded engine it executes serially at an epoch boundary; the sequence
// (and its cycle charges) is identical either way.
func (t *Txn) acquireTiny() {
	s := t.sys
	lockAddr := t.sAddr
	for {
		w := t.proc.Load(lockAddr)
		if isLocked(w) {
			t.abort(ReasonLocked, lockOwner(w), lockAddr) // encounter-time conflict
		}
		ver := wordVersion(w)
		if ver > t.rv && !t.extend() {
			t.abort(ReasonValidation, -1, lockAddr)
		}
		// CAS emulation: the timed load above yielded, so the word may
		// have changed; Peek and the store below are atomic (no yield in
		// between), so an unchanged word means the CAS wins.
		if s.h.Peek(lockAddr) != w {
			continue
		}
		t.proc.Store(lockAddr, lockedWord(t.proc.ID()))
		t.sVer = ver
		return
	}
}

// commitTiny is the writing-commit sequence. Under the sharded engine it
// executes serially at an epoch boundary; the sequence (and its cycle
// charges) is identical either way.
func (t *Txn) commitTiny() {
	s := t.sys
	// Increment the global clock (timed load+store modelling the
	// contended fetch-and-increment; Peek+Store is the atomic step).
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
	if cv > t.rv+1 && !t.validate() {
		t.abort(ReasonValidation, -1, 0)
	}
	// Publish the write-back buffer in program order.
	for _, we := range t.writes {
		if s.pt != nil {
			s.pt.Service(t.proc, we.addr)
		}
		t.proc.AddCycles(s.cfg.STM.CommitPerWrite)
		t.proc.Store(we.addr, we.val)
	}
	// Release locks with the commit version, in acquisition order.
	for _, oe := range t.owned {
		t.proc.Store(oe.lockAddr, versionWord(cv))
	}
	t.finish()
	s.Counters.Inc(t.proc.ID(), "stm:commit")
}
