// NOrec (Dalessandro, Spear, Scott: "NOrec: Streamlining STM by
// Abolishing Ownership Records") — no lock array at all. The only
// metadata word is a single global sequence lock (reusing the clock
// slot at MetaBase): even = quiescent, odd = a writer is committing.
//
//   - Reads snapshot the sequence lock at begin, record (address, value)
//     pairs, and value-validate the whole read set whenever the lock
//     moves — re-reading the data itself through the cache, so
//     validation cost is traffic over the application's own lines.
//   - Writes only buffer; commit CASes the lock rv → rv+1, writes back,
//     and releases with rv+2. Writers are serialized by the lock.
//   - Read-only transactions never touch shared metadata after begin
//     and commit for free.
//
// Because there is no ownership-record array, the lock-array cache
// footprint and the ≈16 MB false-conflict onset disappear entirely: the
// page range [lockBase, lockBase+2^LockArrayLog2 words) is provably
// never materialised (see TestNOrecZeroLockArrayTraffic). The price is
// one global sequence-lock line shared by every thread (commit-rate
// bound) and O(|read set|) revalidation whenever any writer commits.

package stm

// valEntry is a value-based read-set entry.
type valEntry struct {
	addr uint64
	val  int64
}

type norec struct{}

// Begin samples the sequence lock, waiting out a committing writer.
func (norec) Begin(t *Txn) {
	s := t.sys
	for {
		v := uint64(t.proc.Load(s.clockAddr))
		if v&1 == 0 {
			t.rv = v
			return
		}
		t.proc.Pause() // writer mid-commit; spin on the lock line
	}
}

// Load: read the data, then confirm the sequence lock has not moved;
// if it has, value-validate the read set and re-read.
//
//rtm:hot
func (norec) Load(t *Txn, addr uint64) int64 {
	s := t.sys
	// The sequence-lock probe overlaps the data read (ILP); the cache
	// still sees the access — every reader shares this one hot line,
	// which is NOrec's characteristic coherence traffic.
	t.proc.LoadOverlapped(s.clockAddr)
	if s.pt != nil {
		s.pt.Service(t.proc, addr)
	}
	v := t.proc.Load(addr)
	for uint64(t.proc.PeekShared(s.clockAddr)) != t.rv {
		t.validateNOrec()
		v = t.proc.Load(addr)
	}
	t.vreads = append(t.vreads, valEntry{addr: addr, val: v})
	return v
}

// Store only buffers: NOrec writes touch no shared metadata at all
// before commit.
//
//rtm:hot
func (norec) Store(t *Txn, addr uint64, val int64) {
	t.putWrite(addr, val)
}

func (norec) Commit(t *Txn) {
	if t.proc.ShardActive() {
		// Sequence-lock acquisition, write-back and release form one
		// atomic sequence; park it as an exclusive boundary op. The odd
		// (locked) state is therefore never frozen into an epoch view,
		// so parallel-phase readers cannot spin on it.
		t.proc.Exclusive(t.commitFn)
		return
	}
	t.commitNOrec()
}

func (norec) shardInit(t *Txn) {
	t.commitFn = func() { t.commitNOrec() }
}

// commitNOrec is the writing-commit sequence. Under the sharded engine
// it executes serially at an epoch boundary; the sequence (and its
// cycle charges) is identical either way.
func (t *Txn) commitNOrec() {
	s := t.sys
	// Acquire the sequence lock: CAS rv → rv+1 (odd). Any other value
	// means a concurrent commit happened; value-validate (which advances
	// the snapshot) and retry.
	for {
		old := t.proc.Load(s.clockAddr)
		if uint64(old) != t.rv {
			t.validateNOrec()
			continue
		}
		// CAS emulation: Peek+Store is the atomic step (see acquireTiny).
		if s.h.Peek(s.clockAddr) != old {
			continue
		}
		t.proc.Store(s.clockAddr, old+1)
		break
	}
	// Write back in program order; concurrent readers spin on the odd
	// lock value instead of observing a torn write set.
	for _, we := range t.writes {
		if s.pt != nil {
			s.pt.Service(t.proc, we.addr)
		}
		t.proc.AddCycles(s.cfg.STM.CommitPerWrite)
		t.proc.Store(we.addr, we.val)
	}
	// Release: bump to the next even value.
	t.proc.Store(s.clockAddr, int64(t.rv+2))
	t.finish()
	s.Counters.Inc(t.proc.ID(), "stm:commit")
}

// validateNOrec re-reads every read-set entry and compares values,
// advancing the snapshot to a sequence-lock value that was stable across
// the whole pass. The re-reads are real timed loads: value-based
// validation's cost is cache traffic over the data itself, not over any
// metadata array. Aborts (and unwinds) on the first changed value.
func (t *Txn) validateNOrec() {
	s := t.sys
	for {
		v := uint64(t.proc.Load(s.clockAddr))
		if v&1 == 1 {
			t.proc.Pause() // writer mid-commit
			continue
		}
		t.proc.AddCycles(uint64(len(t.vreads)) * s.cfg.STM.ValidatePerRead)
		for _, re := range t.vreads {
			if s.pt != nil {
				s.pt.Service(t.proc, re.addr)
			}
			if t.proc.Load(re.addr) != re.val {
				t.noteValidationFail()
				t.abort(ReasonValidation, -1, s.clockAddr)
			}
		}
		// The pass only counts if no writer slipped in underneath it.
		if uint64(t.proc.PeekShared(s.clockAddr)) == v {
			t.rv = v
			s.Counters.Inc(t.proc.ID(), "stm:extend")
			t.proc.RecordCounter("stm:extend", 1)
			return
		}
	}
}
