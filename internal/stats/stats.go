// Package stats provides the small statistical toolkit the experiment
// harness needs: means, standard deviations and percentage ratios.
package stats

import "math"

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1), or 0 when fewer than
// two samples exist.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Ratio returns 100·x/base, or 0 when base is 0.
func Ratio(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * x / base
}
