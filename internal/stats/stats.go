// Package stats provides the small statistical toolkit the experiment
// harness needs: means and percentage ratios.
package stats

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

// Ratio returns 100·x/base, or 0 when base is 0.
func Ratio(x, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * x / base
}
