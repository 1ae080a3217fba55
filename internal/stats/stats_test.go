package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if !almost(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("mean of 1..4")
	}
	if Mean(nil) != 0 {
		t.Error("mean of empty")
	}
}

func TestStdDev(t *testing.T) {
	if !almost(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2.13808993529939) {
		t.Errorf("stddev = %g", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
	if StdDev([]float64{5}) != 0 || StdDev(nil) != 0 {
		t.Error("degenerate stddev")
	}
}

func TestRatio(t *testing.T) {
	if !almost(Ratio(120, 80), 150) {
		t.Error("Ratio(120,80)")
	}
	if Ratio(5, 0) != 0 {
		t.Error("Ratio with zero base")
	}
}

// TestMeanShiftProperty: Mean is translation-equivariant and StdDev is
// translation-invariant.
func TestMeanShiftProperty(t *testing.T) {
	check := func(seed int64, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = xs[i] + shift
		}
		return math.Abs(Mean(ys)-Mean(xs)-shift) < 1e-6 &&
			math.Abs(StdDev(ys)-StdDev(xs)) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
