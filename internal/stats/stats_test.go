package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMeanStdDev(t *testing.T) {
	var s Sample
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if !almost(s.Mean(), 5) {
		t.Errorf("mean = %g", s.Mean())
	}
	if math.Abs(s.StdDev()-2.138089935) > 1e-6 {
		t.Errorf("stddev = %g", s.StdDev())
	}
	if s.N() != 8 {
		t.Errorf("n = %d", s.N())
	}
}

func TestEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample should be all zeros")
	}
	s.Add(3)
	if s.Mean() != 3 || s.StdDev() != 0 {
		t.Fatal("single sample")
	}
	if s.String() != "3.00" {
		t.Fatalf("string = %s", s.String())
	}
}

func TestCV(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(10)
	if s.CV() != 0 {
		t.Fatal("constant sample has CV 0")
	}
	var z Sample
	z.Add(0)
	z.Add(0)
	if z.CV() != 0 {
		t.Fatal("zero-mean CV guard failed")
	}
}

func TestMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		var s Sample
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			// Skip inputs whose sum overflows float64 range.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
			s.Add(x)
			lo, hi = min(lo, x), max(hi, x)
		}
		if s.N() == 0 {
			return true
		}
		m := s.Mean()
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
