package rng

import "math"

// Thin wrappers so the sampling code reads like the textbook algorithms.

func sqrt(x float64) float64 { return math.Sqrt(x) }
func ln(x float64) float64   { return math.Log(x) }
func pow(x, y float64) float64 {
	return math.Pow(x, y)
}
