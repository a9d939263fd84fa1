package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
	"rtmlab/internal/rng"
	"rtmlab/internal/testbarrier"
)

// The spin programs' shared words: the flag that holds set and waits
// wait on, and a few lines of data traffic around them.
const (
	spinFlag = 1 << 20
	spinData = 1 << 21
)

// loopSpin is Spin's definition, written out: the oracle's reference.
func loopSpin(p *Proc, load func() int64, done func(int64) bool) int64 {
	for {
		v := load()
		if done(v) {
			return v
		}
		p.Pause()
	}
}

type spinOpKind uint8

const (
	spinWork spinOpKind = iota
	spinLoad
	spinStore
	spinHold    // store 1 to the flag, run hold, store 0
	spinWait    // wait until the flag reads 0
	spinBarrier // wait at the program's barrier
)

type spinOp struct {
	kind spinOpKind
	n    uint64 // Work cycles, or the data word of a Load/Store
	hold []spinOp
}

// spinProgram is one thread's ops per thread, plus the barrier every
// thread waits at once when barrier is set. A hold never contains a
// wait and always ends by storing 0, so once every other thread has
// finished or reached the barrier the flag reads 0 and no wait spins for
// ever.
type spinProgram struct {
	threads []([]spinOp)
	barrier bool
}

// genSpinProgram draws a program with n threads, Work costs up to
// maxCost cycles and holds of up to maxHold ops.
func genSpinProgram(seed uint64, n int, maxCost, maxHold int, barrier bool) spinProgram {
	r := rng.New(seed)
	plain := func() spinOp {
		switch r.Intn(3) {
		case 0:
			return spinOp{kind: spinWork, n: uint64(1 + r.Intn(maxCost))}
		case 1:
			return spinOp{kind: spinLoad, n: uint64(r.Intn(32))}
		}
		return spinOp{kind: spinStore, n: uint64(r.Intn(32))}
	}
	prog := spinProgram{barrier: barrier}
	for t := 0; t < n; t++ {
		var ops []spinOp
		for i, k := 0, 2+r.Intn(10); i < k; i++ {
			switch r.Intn(4) {
			case 0:
				op := spinOp{kind: spinHold}
				for j, h := 0, 1+r.Intn(maxHold); j < h; j++ {
					op.hold = append(op.hold, plain())
				}
				ops = append(ops, op)
			case 1:
				ops = append(ops, spinOp{kind: spinWait})
			default:
				ops = append(ops, plain())
			}
		}
		if barrier {
			i := r.Intn(len(ops) + 1)
			ops = append(ops[:i], append([]spinOp{{kind: spinBarrier}}, ops[i:]...)...)
		}
		prog.threads = append(prog.threads, ops)
	}
	return prog
}

// spinRun is everything a run of a spin program shows of the
// simulation: the region's result, the scheduler's handoffs, the
// recorder's trace and summary, and the host-side op count.
type spinRun struct {
	res      Result
	switches uint64
	trace    string
	summary  string
	ops      uint64

	coroSwitches uint64 // expected to differ between Spin and the loop
}

// runSpinProgram runs prog with every wait made by wait (Spin or
// loopSpin). Each op bumps a host-side sequence number, and done records
// it on the waiter's track, so the trace pins the global order in which
// the waits judged their values. watch, if non-nil, sees a waiter each
// time done accepts (spinWait) and a thread as it reaches the barrier
// (spinBarrier).
func runSpinProgram(t *testing.T, prog spinProgram, flag0 int64, wait func(*Proc, func() int64, func(int64) bool) int64, watch func(*Proc, spinOpKind)) spinRun {
	t.Helper()
	cfg := arch.Haswell()
	h := mem.New(cfg)
	col := obs.NewCollector(0)
	col.Rings = true
	h.Rec = col.Recorder(0, "spin")
	h.Poke(spinFlag, flag0)
	b := testbarrier.New("program", len(prog.threads))
	var seq uint64
	var e *Engine
	var do func(p *Proc, op spinOp)
	do = func(p *Proc, op spinOp) {
		switch op.kind {
		case spinWork:
			seq++
			p.Work(op.n)
		case spinLoad:
			seq++
			p.Load(spinData + op.n*24)
		case spinStore:
			seq++
			p.Store(spinData+op.n*24, int64(seq))
		case spinHold:
			seq++
			p.Store(spinFlag, 1)
			for _, o := range op.hold {
				do(p, o)
			}
			seq++
			p.Store(spinFlag, 0)
		case spinWait:
			load := func() int64 {
				seq++
				return p.Load(spinFlag)
			}
			done := func(v int64) bool {
				p.RecordEvent(obs.Event{Kind: obs.KBackoff, Cycle: p.Cycles(), Arg: seq<<8 | uint64(v&0xff)})
				if v == 0 && watch != nil {
					watch(p, spinWait)
				}
				return v == 0
			}
			v := wait(p, load, done)
			p.RecordEvent(obs.Event{Kind: obs.KBackoff, Cycle: p.Cycles(), Arg: seq<<8 | uint64(v&0xff)})
		case spinBarrier:
			if watch != nil {
				watch(p, spinBarrier)
			}
			seq++
			b.Wait(p)
		}
	}
	res := Run(cfg, h, len(prog.threads), 1, func(p *Proc) { e = p.Engine() }, func(p *Proc) {
		for _, op := range prog.threads[p.ID()] {
			do(p, op)
		}
	})
	var trace bytes.Buffer
	if err := col.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	summary, err := json.Marshal(h.Rec.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return spinRun{res: res, switches: e.switches, trace: trace.String(), summary: string(summary), ops: seq, coroSwitches: e.coroSwitches}
}

// checkSpinVsLoop runs prog once with Spin and once with the written-out
// loop and fails unless the simulation saw the same run. It returns both.
func checkSpinVsLoop(t *testing.T, prog spinProgram, flag0 int64) (spin, loop spinRun) {
	t.Helper()
	spin = runSpinProgram(t, prog, flag0, (*Proc).Spin, nil)
	loop = runSpinProgram(t, prog, flag0, loopSpin, nil)
	switch {
	case !reflect.DeepEqual(spin.res, loop.res):
		t.Fatalf("region result: Spin %+v, loop %+v", spin.res, loop.res)
	case spin.switches != loop.switches:
		t.Fatalf("handoffs: Spin %d, loop %d", spin.switches, loop.switches)
	case spin.ops != loop.ops:
		t.Fatalf("ops: Spin %d, loop %d", spin.ops, loop.ops)
	case spin.summary != loop.summary:
		t.Fatalf("recorder summary:\nSpin %s\nloop %s", spin.summary, loop.summary)
	case spin.trace != loop.trace:
		t.Fatalf("recorder trace differs:\n%s", firstDiff(spin.trace, loop.trace))
	}
	return spin, loop
}

// firstDiff shows the first line where a and b differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\nSpin %s\nloop %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("Spin has %d lines, loop %d", len(al), len(bl))
}

// FuzzSpinVsLoop is Spin's equivalence oracle: a random program of
// holds, waits, data traffic and an optional barrier on 2 to 8 threads
// must run identically with Spin and with the loop it stands for. At 5
// to 8 threads hyper-thread siblings share cores, so a sibling that
// finishes changes the cost of a waiter's steps mid-wait.
func FuzzSpinVsLoop(f *testing.F) {
	for _, s := range []struct {
		seed                   uint64
		threads, cost, hold, b uint8
	}{
		{1, 0, 20, 4, 0},
		{2, 2, 200, 8, 1},
		{3, 3, 5, 2, 0},
		{4, 4, 60, 12, 1},
		{5, 5, 100, 6, 0},
		{6, 6, 30, 3, 1},
		{7, 1, 250, 16, 0},
		{8, 6, 1, 1, 1},
		{42, 5, 80, 10, 1},
	} {
		f.Add(s.seed, s.threads, s.cost, s.hold, s.b)
	}
	f.Fuzz(func(t *testing.T, seed uint64, threads, cost, hold, barrier uint8) {
		prog := genSpinProgram(seed, 2+int(threads%7), 1+int(cost), 1+int(hold%32), barrier&1 == 1)
		checkSpinVsLoop(t, prog, 0)
	})
}

// TestSpinCases pins the corners of running waits in place, each against
// the loop.
func TestSpinCases(t *testing.T) {
	work := func(n uint64, k int) []spinOp {
		ops := make([]spinOp, k)
		for i := range ops {
			ops[i] = spinOp{kind: spinWork, n: n}
		}
		return ops
	}
	wait := []spinOp{{kind: spinWait}}
	hold := func(ops []spinOp) []spinOp { return []spinOp{{kind: spinHold, hold: ops}} }

	t.Run("tie broken by id", func(t *testing.T) {
		// The holder's Work(14) ops match a waiter's L1-hit Load and Pause
		// (4 + 10 cycles), so for one of the 14 lead-ins the waiter's
		// steps end on the holder's clock: as thread 1 the waiter hands
		// off at each tie, as thread 0 it runs on.
		holder := append(work(14, 60), hold(nil)...)
		for j := uint64(1); j <= 14; j++ {
			waiter := append(work(j, 1), wait...)
			checkSpinVsLoop(t, spinProgram{threads: [][]spinOp{holder, waiter}}, 1)
			checkSpinVsLoop(t, spinProgram{threads: [][]spinOp{waiter, holder}}, 1)
		}
	})

	t.Run("wait ends as the holder finishes", func(t *testing.T) {
		// The holder's last op releases the flag and it finishes before
		// any waiter reads it: the waiters' next steps run as finish's
		// pick, in the loop of the thread that resumed the holder or in
		// Run's.
		for n := 2; n <= 4; n++ {
			prog := spinProgram{threads: [][]spinOp{hold(work(30, 10))}}
			for i := 1; i < n; i++ {
				prog.threads = append(prog.threads, append(work(uint64(i), 1), wait...))
			}
			var live []int
			runSpinProgram(t, prog, 0, (*Proc).Spin, func(p *Proc, _ spinOpKind) {
				n := 0
				for _, c := range p.eng.coreLive {
					n += c
				}
				live = append(live, n)
			})
			if len(live) != n-1 || live[0] != n-1 {
				t.Fatalf("%d threads: live threads as each wait ended: %v, want %d waits, the first with the holder gone", n, live, n-1)
			}
			checkSpinVsLoop(t, prog, 0)
		}
	})

	t.Run("barrier block while others spin", func(t *testing.T) {
		// Thread 3 reaches the barrier first, while both waiters spin,
		// and polls it: its handoff loop runs their steps in place until
		// the holder is picked. The others arrive once the holder has
		// released the flag.
		prog := spinProgram{barrier: true, threads: [][]spinOp{
			append(work(40, 5), spinOp{kind: spinHold, hold: work(100, 6)}, spinOp{kind: spinBarrier}),
			append(work(300, 1), append(wait, spinOp{kind: spinBarrier})...),
			append(work(300, 1), append(wait, spinOp{kind: spinBarrier})...),
			append(work(400, 1), spinOp{kind: spinBarrier}, spinOp{kind: spinWork, n: 5000}),
		}}
		var spinning []int // waiters in Spin as each thread reaches the barrier
		runSpinProgram(t, prog, 0, (*Proc).Spin, func(p *Proc, k spinOpKind) {
			if k == spinBarrier {
				n := 0
				for _, q := range p.eng.procs {
					if q.spinLoad != nil {
						n++
					}
				}
				spinning = append(spinning, n)
			}
		})
		if len(spinning) != 4 || spinning[0] != 2 {
			t.Fatalf("waiters spinning as each thread reached the barrier: %v, want 2 as the first arrived", spinning)
		}
		checkSpinVsLoop(t, prog, 0)
	})

	t.Run("waiter on and off the resume chain", func(t *testing.T) {
		// As thread 0 the waiter runs first and resumes the holder, so it
		// sits on the chain below it when its wait ends in place; as
		// thread 1 it starts after the holder and parks off the chain.
		// The holder works on after the release, so it is the one that
		// runs the waiter's last steps.
		holder := append(append(work(100, 5), hold(nil)...), work(1000, 1)...)
		for _, tc := range []struct {
			name   string
			prog   spinProgram
			nested bool
		}{
			{"on", spinProgram{threads: [][]spinOp{wait, holder}}, true},
			{"off", spinProgram{threads: [][]spinOp{holder, wait}}, false},
		} {
			var nested []bool
			spin := runSpinProgram(t, tc.prog, 1, (*Proc).Spin, func(p *Proc, _ spinOpKind) { nested = append(nested, p.nested) })
			if len(nested) != 1 || nested[0] != tc.nested {
				t.Fatalf("%s the chain: waiter nested when its wait ended: %v, want [%v]", tc.name, nested, tc.nested)
			}
			_, loop := checkSpinVsLoop(t, tc.prog, 1)
			if spin.coroSwitches >= loop.coroSwitches {
				t.Fatalf("%s the chain: coroutine switches: Spin %d, loop %d; want fewer", tc.name, spin.coroSwitches, loop.coroSwitches)
			}
		}
	})
}

// TestSpinPanicInPlace pins where a panic in a wait's load goes. Run in
// place, on the holder's stack, it reaches Run's caller naming the
// waiting thread; run in the waiter's own coroutine it keeps its value,
// as the loop's would.
func TestSpinPanicInPlace(t *testing.T) {
	// The holder's first Work takes it to cycle 1000; the waiter spins
	// on its own until its clock reaches the holder's, so its first load
	// starting at cycle 1000 or later is the first one run in place.
	for _, tc := range []struct {
		from uint64
		want string
	}{
		{1000, "sim: thread 1 panicked in a spin wait run in place: boom"},
		{0, "boom"},
	} {
		cfg := arch.Haswell()
		h := mem.New(cfg)
		h.Poke(spinFlag, 1)
		got := func() (v any) {
			defer func() { v = recover() }()
			Run(cfg, h, 2, 1, nil, func(p *Proc) {
				if p.ID() == 0 {
					for i := 0; i < 10; i++ {
						p.Work(1000)
					}
					p.Store(spinFlag, 0)
					return
				}
				p.Spin(func() int64 {
					start := p.Cycles()
					v := p.Load(spinFlag)
					if start >= tc.from {
						panic("boom")
					}
					return v
				}, func(v int64) bool { return v == 0 })
			})
			return nil
		}()
		if got != tc.want {
			t.Errorf("load panicking from cycle %d: recovered %#v, want %q", tc.from, got, tc.want)
		}
	}
}

// TestSpinWaitSwitches pins the point of Spin: a holder with three
// waiters makes as many coroutine switches however long it holds, since
// the waiters' steps run in the holder's handoff loop, while their
// handoffs grow with the hold as the loop's would.
func TestSpinWaitSwitches(t *testing.T) {
	count := func(ops int) (handoffs, switches uint64) {
		cfg := arch.Haswell()
		h := mem.New(cfg)
		h.Poke(spinFlag, 1)
		var e *Engine
		Run(cfg, h, 4, 1, func(p *Proc) { e = p.Engine() }, spinWaitBody(ops))
		return e.switches, e.coroSwitches
	}
	h1, s1 := count(100)
	h2, s2 := count(1000)
	if s1 != s2 || h2 < h1+1000 {
		t.Fatalf("holding for 100 ops: %d handoffs, %d switches; for 1000: %d, %d; want equal switches and more handoffs", h1, s1, h2, s2)
	}
}

// spinWaitBody is BenchmarkSpinWait's region: thread 0 holds the flag
// for ops Work(10) ops, then clears it, while threads 1-3 wait on it.
func spinWaitBody(ops int) func(p *Proc) {
	return func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < ops; i++ {
				p.Work(10)
			}
			p.Store(spinFlag, 0)
			return
		}
		p.Spin(func() int64 { return p.Load(spinFlag) }, func(v int64) bool { return v == 0 })
	}
}
