package perf

import "testing"

func TestIncAddGet(t *testing.T) {
	s := NewSet()
	s.Inc(RTMStart)
	s.Inc(RTMStart)
	s.Add(RTMAborted, 5)
	if s.Get(RTMStart) != 2 {
		t.Errorf("start = %d", s.Get(RTMStart))
	}
	if s.Get(RTMAborted) != 5 {
		t.Errorf("aborted = %d", s.Get(RTMAborted))
	}
	if s.Get("nonexistent") != 0 {
		t.Error("untouched counter should read 0")
	}
}

func TestSnapshotSub(t *testing.T) {
	s := NewSet()
	s.Add(RTMStart, 10)
	snap := s.Snapshot()
	s.Add(RTMStart, 7)
	s.Add(RTMCommit, 3)
	if d := s.Get(RTMStart) - snap[RTMStart]; d != 7 {
		t.Fatalf("start delta = %d", d)
	}
	if _, ok := snap[RTMCommit]; ok {
		t.Fatal("snapshot holds a counter added after it")
	}
	// Snapshot must be an independent copy.
	snap[RTMStart] = 999
	if s.Get(RTMStart) != 17 {
		t.Fatal("snapshot aliases the live set")
	}
}

func TestStagedCountsMergeOnce(t *testing.T) {
	s := NewSet()
	s.Stage(1, 4)
	s.Stage(3, 4)
	s.For(1, false).Inc("x") // unstaged: straight into s
	s.For(1, true).Add("x", 2)
	s.For(3, true).Inc("y")
	if s.Get("x") != 1 || s.Get("y") != 0 {
		t.Fatalf("staged counts leaked before the merge: x=%d y=%d", s.Get("x"), s.Get("y"))
	}
	s.MergeStaged()
	s.MergeStaged() // the staging sets are empty now
	if s.Get("x") != 3 || s.Get("y") != 1 {
		t.Fatalf("after merge: x=%d y=%d, want 3 and 1", s.Get("x"), s.Get("y"))
	}
}
