package tm

import (
	"strings"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/htm"
)

// TestAwaitClearAllocatesNothing pins that a wait for the serialisation
// lock allocates nothing: awaitClear hands sim.Proc.Spin the thread's
// persistent closures, and its steps run in the holder's handoff loop.
func TestAwaitClearAllocatesNothing(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	const waits = 100
	stop := false
	var allocs float64
	res := sys.Run(2, 1, func(c *Ctx) {
		if c.P.ID() == 0 {
			for !stop {
				c.Store(serialLockAddr, -1) // a writer holds the lock
				c.Work(300)
				c.Store(serialLockAddr, 0)
				c.Work(20)
			}
			return
		}
		allocs = testing.AllocsPerRun(waits, func() {
			c.awaitClear(guardSerial)
			c.Work(50)
		})
		stop = true
	})
	if allocs != 0 {
		t.Fatalf("awaitClear allocates %v times per wait", allocs)
	}
	// AllocsPerRun makes one warm-up call: each wait is at least a Load
	// and 50 Work instructions, and every spin iteration a Load and a
	// Pause more.
	if spun := res.Instr[1] - (waits+1)*51; spun < 2*waits {
		t.Fatalf("the waits spun %d instructions in all, want at least %d", spun, 2*waits)
	}
}

// TestSpinPanicSkipsHostAttempt checks that a panic in a wait's load
// that runs in place, on the stack of a thread inside an HTM attempt,
// is not taken for that attempt's abort: even an htm.Abort value reaches
// Run's caller, renamed for the waiting thread, and the attempt does not
// retry.
func TestSpinPanicSkipsHostAttempt(t *testing.T) {
	const flag = 1 << 22
	sys := NewSystem(arch.Haswell(), HTM)
	sys.H.Poke(flag, 1)
	got := func() (v any) {
		defer func() { v = recover() }()
		sys.Run(2, 1, func(c *Ctx) {
			if c.P.ID() == 0 {
				attempts := 0
				c.Atomic(func(tx Tx) {
					if attempts++; attempts > 1 {
						panic("thread 0's attempt took the waiter's panic for its own abort and retried")
					}
					for i := 0; i < 20; i++ {
						tx.Load(uint64(i) * arch.LineSize)
						c.Work(500)
					}
				})
				c.Store(flag, 0)
				return
			}
			// Thread 0 is inside its attempt from its first op, and the
			// waiter's loads from cycle 2000 on run in place in it; the
			// first of them panics.
			panicked := false
			c.P.Spin(func() int64 {
				start := c.P.Cycles()
				v := c.Load(flag)
				if start >= 2000 && !panicked {
					panicked = true
					panic(htm.Abort{Status: htm.StatusConflict, Cause: htm.CauseConflict, ByThread: -1})
				}
				return v
			}, func(v int64) bool { return v == 0 })
		})
		return nil
	}()
	s, ok := got.(string)
	if !ok || !strings.HasPrefix(s, "sim: thread 1 panicked in a spin wait run in place: rtm abort") {
		t.Fatalf("recovered %#v, want the waiter's abort renamed for thread 1", got)
	}
}
