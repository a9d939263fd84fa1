// Package testbarrier is a barrier for tests that run simulated threads.
// It does not import the simulator, so the simulator's own tests can use
// it: a thread is anything with the two Proc methods it needs.
//
// An arrival is one Proc.Exclusive call, which runs serially on either
// engine. Waiters then poll a host-side generation with plain Pauses, so
// a barrier makes no cache access and leaves the cache and directory
// state a test asserts as it was. A Pause may run inside a hardware
// transaction, so a barrier may too. A miscounted barrier does not hang:
// a waiter that polls MaxPolls times panics with a message naming the
// barrier.
package testbarrier

import "fmt"

// Proc is the part of a simulated thread (sim.Proc) a barrier uses.
type Proc interface {
	Exclusive(fn func())
	Pause()
}

// MaxPolls bounds one wait: at 10 cycles a Pause it lets a waiter wait
// about 10 M simulated cycles, several times any test's skew between
// arrivals.
const MaxPolls = 1 << 20

// Barrier releases its threads once n of them have arrived. It can be
// reused: each release starts a new generation.
type Barrier struct {
	name    string
	n       int
	arrived int
	gen     uint64
}

// New returns a barrier for n threads; name identifies it in the panic
// of a wait that gives up.
func New(name string, n int) *Barrier {
	if n < 1 {
		panic(fmt.Sprintf("testbarrier: barrier %s for %d threads", name, n))
	}
	return &Barrier{name: name, n: n}
}

// Wait arrives at the barrier and returns once all n threads of this
// generation have arrived.
func (b *Barrier) Wait(p Proc) {
	var gen uint64
	p.Exclusive(func() {
		gen = b.gen
		if b.arrived++; b.arrived == b.n {
			b.arrived = 0
			b.gen++
		}
	})
	for polls := 0; b.gen == gen; polls++ {
		if polls == MaxPolls {
			panic(fmt.Sprintf("testbarrier: barrier %s: %d of %d threads arrived, a waiter gave up after %d polls", b.name, b.arrived, b.n, MaxPolls))
		}
		p.Pause()
	}
}
