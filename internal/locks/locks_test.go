package locks

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/sim"
	"rtmlab/internal/testbarrier"
)

// procMem is the Mem of a bare simulated thread, without TM awareness.
type procMem struct{ p *sim.Proc }

func (m procMem) Load(addr uint64) int64       { return m.p.Load(addr) }
func (m procMem) Store(addr uint64, val int64) { m.p.Store(addr, val) }
func (m procMem) Pause()                       { m.p.Pause() }

// RMW pays store timing, then applies f with no scheduler yield between
// the read and the write, so no other simulated thread can interleave.
func (m procMem) RMW(addr uint64, f func(int64) int64) int64 {
	e := m.p.Engine()
	m.p.AddCycles(e.Cfg.Lat.AtomicRMW)
	m.p.StoreTiming(addr)
	old := e.H.Peek(addr)
	e.H.Poke(addr, f(old))
	return old
}

func runN(n int, seed uint64, body func(p *sim.Proc, m Mem)) *mem.Hierarchy {
	cfg := arch.Haswell()
	h := mem.New(cfg)
	sim.Run(cfg, h, n, seed, nil, func(p *sim.Proc) {
		body(p, procMem{p})
	})
	return h
}

func TestCAS(t *testing.T) {
	runN(1, 1, func(p *sim.Proc, m Mem) {
		if !CAS(m, 0, 0, 5) {
			t.Error("CAS from zero failed")
		}
		if CAS(m, 0, 0, 9) {
			t.Error("CAS with stale expectation succeeded")
		}
		if m.Load(0) != 5 {
			t.Errorf("value = %d", m.Load(0))
		}
	})
}

func TestFetchAddAtomicUnderContention(t *testing.T) {
	const perThread = 400
	h := runN(4, 2, func(p *sim.Proc, m Mem) {
		for i := 0; i < perThread; i++ {
			m.RMW(0, incr)
		}
	})
	if got := h.Peek(0); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

func testMutex(t *testing.T, lock, unlock func(m Mem)) {
	t.Helper()
	const perThread = 200
	counterAddr := uint64(1024)
	h := runN(4, 3, func(p *sim.Proc, m Mem) {
		for i := 0; i < perThread; i++ {
			lock(m)
			v := m.Load(counterAddr)
			p.Work(5) // widen the race window
			m.Store(counterAddr, v+1)
			unlock(m)
		}
	})
	if got := h.Peek(counterAddr); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
}

func TestTicketMutualExclusion(t *testing.T) {
	l := Ticket{Addr: 0}
	testMutex(t, func(m Mem) { l.Lock(m) }, func(m Mem) { l.Unlock(m) })
}

func TestRWWriteMutualExclusion(t *testing.T) {
	l := RW{Addr: 0}
	testMutex(t, func(m Mem) { l.WriteLock(m) }, func(m Mem) { l.WriteUnlock(m) })
}

func TestTicketFairnessFIFO(t *testing.T) {
	// With a ticket lock, grant order must follow ticket order.
	l := Ticket{Addr: 0}
	var order []int
	cfg := arch.Haswell()
	h := mem.New(cfg)
	b := testbarrier.New("TestTicketFairnessFIFO", 4)
	sim.Run(cfg, h, 4, 1, nil, func(p *sim.Proc) {
		m := procMem{p}
		// Stagger arrival wider than any miss latency so ticket-grab
		// order is the thread order.
		p.Work(uint64(1 + 500*p.ID()))
		l.Lock(m)
		order = append(order, p.ID())
		p.Work(100)
		l.Unlock(m)
		b.Wait(p)
	})
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("ticket lock not FIFO: %v", order)
		}
	}
}

func TestRWReadersShareWritersExclude(t *testing.T) {
	// Readers (transactions testing CanRead) share any word a writer
	// does not hold; a held write side excludes readers and writers.
	l := RW{Addr: 0}
	for _, v := range []int64{0, 1, 2} {
		if !CanRead(v) {
			t.Errorf("CanRead(%d) false without a writer", v)
		}
	}
	runN(1, 1, func(p *sim.Proc, m Mem) {
		l.WriteLock(m)
		if CanRead(m.Load(l.Addr)) {
			t.Error("CanRead true while writer holds")
		}
		if CAS(m, l.Addr, 0, -1) {
			t.Error("second writer acquired a held lock")
		}
		l.WriteUnlock(m)
		if !CanRead(m.Load(l.Addr)) {
			t.Error("CanRead false on free lock")
		}
		l.WriteLock(m) // a released lock can be taken again
		l.WriteUnlock(m)
	})
}

func TestLockLinePingPong(t *testing.T) {
	// Contended locking must generate cache-to-cache transfers — the
	// coherence cost the paper attributes lock overhead to.
	cfg := arch.Haswell()
	h := mem.New(cfg)
	l := Ticket{Addr: 0}
	res := sim.Run(cfg, h, 4, 1, nil, func(p *sim.Proc) {
		m := procMem{p}
		for i := 0; i < 50; i++ {
			l.Lock(m)
			p.Work(20)
			l.Unlock(m)
		}
	})
	if res.MemStats.C2CTransfers == 0 && res.MemStats.Invalidations == 0 {
		t.Fatal("no coherence traffic on a contended lock")
	}
}
