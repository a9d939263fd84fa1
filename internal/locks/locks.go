// Package locks implements conventional synchronization on simulated
// memory: compare-and-swap, the Linux-style ticket spinlock the paper
// compares against, and the write side of the reader/writer spinlock used
// by the RTM fallback path (Algorithm 1), whose readers are the hardware
// transactions that test CanRead.
//
// The coherence ping-pong of the lock cache line — which the paper
// identifies as the main cost of lock-based synchronization under
// contention — emerges from the cache model underneath these operations.
package locks

// Mem is the access interface the primitives run on. The tm package's
// context implements it with strong-atomicity semantics (raw stores abort
// conflicting hardware transactions).
type Mem interface {
	// Load performs a timed coherent read.
	Load(addr uint64) int64
	// Store performs a timed coherent write.
	Store(addr uint64, val int64)
	// RMW atomically applies f to the word at addr and returns the old
	// value. The implementation pays exclusive-access (store) timing.
	RMW(addr uint64, f func(int64) int64) int64
	// Pause executes a spin-wait hint.
	Pause()
}

// CAS atomically replaces old with new at addr, reporting success.
func CAS(m Mem, addr uint64, old, new int64) bool {
	ok := false
	m.RMW(addr, func(v int64) int64 {
		if v == old {
			ok = true
			return new
		}
		return v
	})
	return ok
}

// Ticket is a Linux-kernel-style ticket spinlock occupying two words of
// simulated memory (next at Addr, owner at Addr+8). Zero-initialised
// memory is an unlocked lock.
type Ticket struct {
	Addr uint64 // base address; must be word-aligned
}

func (l Ticket) nextAddr() uint64  { return l.Addr }
func (l Ticket) ownerAddr() uint64 { return l.Addr + 8 }

// incr is the ticket-take RMW as a static closure, so a lock acquisition
// allocates nothing.
var incr = func(v int64) int64 { return v + 1 }

// Lock acquires the lock, spinning with Pause while waiting.
func (l Ticket) Lock(m Mem) {
	my := m.RMW(l.nextAddr(), incr)
	for m.Load(l.ownerAddr()) != my {
		m.Pause()
	}
}

// Unlock releases the lock. Only the holder may call it.
func (l Ticket) Unlock(m Mem) {
	owner := m.Load(l.ownerAddr())
	m.Store(l.ownerAddr(), owner+1)
}

// RW is a reader/writer spinlock in one word: 0 free, >0 reader count,
// -1 writer held. This is the serialisation lock of the paper's RTM
// fallback (Algorithm 1): its readers are transactions, which test
// CanRead on the raw word without taking a hold, and the fallback path
// takes the write side.
type RW struct {
	Addr uint64
}

// CanRead reports whether a lock word value permits readers (i.e. no
// writer holds it) — the arch_read_can_lock predicate.
func CanRead(v int64) bool { return v >= 0 }

// WriteLock acquires the lock exclusive.
func (l RW) WriteLock(m Mem) {
	for !CAS(m, l.Addr, 0, -1) {
		m.Pause()
	}
}

// WriteUnlock releases an exclusive hold.
func (l RW) WriteUnlock(m Mem) { m.Store(l.Addr, 0) }
