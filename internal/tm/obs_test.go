package tm

import (
	"testing"

	"rtmlab/internal/arch"
	"rtmlab/internal/mem"
	"rtmlab/internal/obs"
)

// kindCount returns how many events of kind k rec ever recorded.
func kindCount(rec *obs.Recorder, k obs.Kind) uint64 { return rec.Summary().Events[k.String()] }

// contend hammers one counter word from several threads through tagged
// atomic blocks, guaranteeing conflict aborts.
func contend(t *testing.T, backend Backend) (*System, *obs.Recorder) {
	t.Helper()
	sys := NewSystem(arch.Haswell(), backend)
	rec := obs.NewRecorder("contend", 0)
	sys.SetRecorder(rec)
	const perThread = 80
	sys.Run(4, 7, func(c *Ctx) {
		for i := 0; i < perThread; i++ {
			c.AtomicSite("incr", func(tx Tx) {
				tx.Store(0, tx.Load(0)+1)
			})
		}
	})
	if got := sys.H.Peek(0); got != 4*perThread {
		t.Fatalf("counter = %d, want %d", got, 4*perThread)
	}
	return sys, rec
}

func TestRecorderHTMAbortEvents(t *testing.T) {
	_, rec := contend(t, HTM)
	if kindCount(rec, obs.KTxCommit) != 4*80 {
		t.Fatalf("commit events = %d, want %d", kindCount(rec, obs.KTxCommit), 4*80)
	}
	if kindCount(rec, obs.KTxAbort) == 0 {
		t.Fatal("no abort events recorded under 4-thread contention")
	}
	// Every conflict abort event must carry the conflicting line and a
	// real aggressor thread.
	line := mem.LineAddr(0)
	var conflicts int
	for tid := 0; tid < rec.Threads(); tid++ {
		for _, e := range rec.ThreadEvents(tid) {
			if e.Kind != obs.KTxAbort || e.Cause != obs.CauseConflict {
				continue
			}
			conflicts++
			if e.Arg != line {
				t.Fatalf("conflict abort line = %#x, want %#x", e.Arg, line)
			}
			if e.Aux < 0 || int(e.Aux) >= 4 || int(e.Aux) == tid {
				t.Fatalf("aggressor thread = %d for victim %d", e.Aux, tid)
			}
			if e.Cycle < e.Start {
				t.Fatalf("abort slice ends (%d) before it starts (%d)", e.Cycle, e.Start)
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("no conflict abort events found")
	}
	// The site matrix must agree with the event stream.
	sum := rec.Summary()
	if len(sum.Sites) != 1 || sum.Sites[0].Site != "incr" {
		t.Fatalf("sites = %+v", sum.Sites)
	}
	if sum.Sites[0].Commits != 4*80 {
		t.Errorf("site commits = %d", sum.Sites[0].Commits)
	}
	if sum.Sites[0].Aborts["conflict"] == 0 {
		t.Errorf("site abort matrix missing conflicts: %v", sum.Sites[0].Aborts)
	}
	if rec.ReadAtCommit.N == 0 || rec.ReadAtAbort.N == 0 {
		t.Errorf("set-size histograms empty: commit n=%d abort n=%d",
			rec.ReadAtCommit.N, rec.ReadAtAbort.N)
	}
	if rec.Counter("mem:l1.miss") == 0 {
		t.Error("per-level miss counters not recorded")
	}
}

func TestRecorderSTMAbortEvents(t *testing.T) {
	_, rec := contend(t, STM)
	if kindCount(rec, obs.KTxCommit) != 4*80 {
		t.Fatalf("commit events = %d, want %d", kindCount(rec, obs.KTxCommit), 4*80)
	}
	if kindCount(rec, obs.KTxAbort) == 0 {
		t.Fatal("no abort events recorded under 4-thread contention")
	}
	if kindCount(rec, obs.KBackoff) == 0 {
		t.Fatal("no backoff events recorded")
	}
	var stmCauses int
	for tid := 0; tid < rec.Threads(); tid++ {
		for _, e := range rec.ThreadEvents(tid) {
			if e.Kind == obs.KTxAbort &&
				(e.Cause == obs.CauseLocked || e.Cause == obs.CauseValidation) {
				stmCauses++
			}
		}
	}
	if stmCauses == 0 {
		t.Fatal("no locked/validation abort events found")
	}
}

// TestRecorderDisabledIsInert checks that running without a recorder
// leaves no trace state behind (the nil fast path).
func TestRecorderDisabledIsInert(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	sys.Run(2, 3, func(c *Ctx) {
		for i := 0; i < 20; i++ {
			c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	})
	if sys.Obs != nil || sys.H.Rec != nil {
		t.Fatal("recorder unexpectedly attached")
	}
}

// TestRecorderTimelineMonotonic checks that multi-region runs land on one
// monotonic timeline (AdvanceBase re-basing).
func TestRecorderTimelineMonotonic(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	rec := obs.NewRecorder("regions", 0)
	sys.SetRecorder(rec)
	for region := 0; region < 3; region++ {
		sys.Run(2, uint64(region+1), func(c *Ctx) {
			for i := 0; i < 10; i++ {
				c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
			}
		})
	}
	// Thread clocks restart at zero in every region, so the timeline is
	// monotonic only if the recorder's base advanced between regions.
	for tid := 0; tid < rec.Threads(); tid++ {
		var last uint64
		for _, e := range rec.ThreadEvents(tid) {
			if e.Cycle < last {
				t.Fatalf("thread %d timeline not monotonic: %d after %d", tid, e.Cycle, last)
			}
			last = e.Cycle
		}
	}
	if got := rec.Counter("sim:regions"); got != 3 {
		t.Errorf("sim:regions = %d, want 3", got)
	}
}

// TestTraceTimeline checks the recorder's transaction timeline against
// the counters: every atomic block commits once (in hardware or on the
// fallback path), every attempt begins, and every abort is recorded.
func TestTraceTimeline(t *testing.T) {
	sys := NewSystem(arch.Haswell(), HTM)
	rec := obs.NewRecorder("timeline", 0)
	sys.SetRecorder(rec)
	sys.Run(2, 3, func(c *Ctx) {
		for i := 0; i < 30; i++ {
			c.Atomic(func(tx Tx) { tx.Store(0, tx.Load(0)+1) })
		}
	})
	if got := kindCount(rec, obs.KTxCommit); got != 60 {
		t.Fatalf("commits recorded = %d, want 60", got)
	}
	if got := kindCount(rec, obs.KTxBegin); got < 60 {
		t.Fatalf("begins recorded = %d, want at least 60", got)
	}
	if got := kindCount(rec, obs.KTxAbort); got != sys.Aborts() {
		t.Fatalf("aborts recorded = %d, counted %d", got, sys.Aborts())
	}
}
