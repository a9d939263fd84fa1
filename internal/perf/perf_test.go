package perf

import "testing"

func TestIncAddGet(t *testing.T) {
	s := NewSet(1)
	s.Inc(0, RTMStart)
	s.Inc(0, RTMStart)
	s.Add(0, RTMAborted, 5)
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
	s := NewSet(1)
	s.Add(0, RTMStart, 10)
	snap := s.Snapshot()
	s.Add(0, RTMStart, 7)
	s.Add(0, RTMCommit, 3)
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

func TestPerThreadCountsSum(t *testing.T) {
	s := NewSet(4)
	s.Inc(1, "x")
	s.Add(3, "x", 2)
	s.Inc(3, "y")
	s.Add(0, "z", 0) // a touched zero stays in the snapshot
	if s.Get("x") != 3 || s.Get("y") != 1 {
		t.Fatalf("Get: x=%d y=%d, want 3 and 1", s.Get("x"), s.Get("y"))
	}
	snap := s.Snapshot()
	want := map[string]uint64{"x": 3, "y": 1, "z": 0}
	if len(snap) != len(want) {
		t.Fatalf("Snapshot = %v, want %v", snap, want)
	}
	for k, v := range want {
		if got, ok := snap[k]; !ok || got != v {
			t.Fatalf("Snapshot = %v, want %v", snap, want)
		}
	}
	snap["x"] = 999
	s.Inc(2, "x")
	if s.Get("x") != 4 || snap["x"] != 999 {
		t.Fatalf("snapshot aliases the live set: live x=%d, snapshot x=%d", s.Get("x"), snap["x"])
	}
}
