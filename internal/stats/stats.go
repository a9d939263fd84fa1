// Package stats provides the small descriptive-statistics helpers the
// harness uses to aggregate multi-seed runs, mirroring the paper's
// averaging over 10 runs and its notes on run-to-run deviation (bayes and
// kmeans "see significant deviations in execution times").
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations.
type Sample struct {
	xs []float64
}

// Add appends an observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the observation count.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Sample) StdDev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	ss := 0.0
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CV returns the coefficient of variation (stddev/mean), 0 if mean is 0.
func (s *Sample) CV() float64 {
	m := s.Mean()
	if m == 0 {
		return 0
	}
	return s.StdDev() / math.Abs(m)
}

// String renders "mean±sd" with sensible precision.
func (s *Sample) String() string {
	if s.N() < 2 {
		return fmt.Sprintf("%.2f", s.Mean())
	}
	return fmt.Sprintf("%.2f±%.2f", s.Mean(), s.StdDev())
}
