package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestMapOrdering(t *testing.T) {
	for _, jobs := range []int{0, 1, 2, 7, 64} {
		out := Map(jobs, 100, func(i int) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("jobs=%d: len %d", jobs, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out := Map(4, 0, func(i int) int { t.Fatal("called"); return 0 })
	if len(out) != 0 {
		t.Fatalf("len %d", len(out))
	}
}

func TestMapRunsEveryPointOnce(t *testing.T) {
	var calls [257]atomic.Int32
	Map(8, len(calls), func(i int) int32 { return calls[i].Add(1) })
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("point %d ran %d times", i, n)
		}
	}
}

func TestMapConcurrencyBound(t *testing.T) {
	const jobs = 3
	var live, peak atomic.Int32
	Map(jobs, 64, func(i int) int32 {
		n := live.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		runtime.Gosched()
		return live.Add(-1)
	})
	if p := peak.Load(); p > jobs {
		t.Fatalf("observed %d concurrent workers, cap %d", p, jobs)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	Map(4, 32, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	})
	t.Fatal("Map returned after panic")
}

func TestJobs(t *testing.T) {
	if Jobs(3) != 3 {
		t.Fatal("Jobs(3)")
	}
	if Jobs(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("Jobs(0) should default to GOMAXPROCS")
	}
	if Jobs(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("Jobs(-1) should default to GOMAXPROCS")
	}
}
