package utility

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestStepTableValues(t *testing.T) {
	// U2 from the paper's Fig. 4: 40 up to 90 ms, then 20 up to 200 ms,
	// then 10 up to 250 ms, then 0.
	u2 := MustStep([]Time{90, 200, 250}, []float64{40, 20, 10})
	cases := []struct {
		t    Time
		want float64
	}{
		{0, 40}, {80, 40}, {90, 40},
		{91, 20}, {100, 20}, {160, 20}, {200, 20},
		{201, 10}, {250, 10},
		{251, 0}, {1000, 0},
	}
	for _, c := range cases {
		if got := u2.Value(c.t); got != c.want {
			t.Errorf("U2(%d) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestPaperFig2Utilities(t *testing.T) {
	// Fig. 2a: Ua is 40 until 40 ms, 20 until 80-ish; the paper states
	// Ua(60) = 20.
	ua := MustStep([]Time{40, 80}, []float64{40, 20})
	if got := ua.Value(60); got != 20 {
		t.Errorf("Ua(60) = %g, want 20", got)
	}
	// Fig. 2b: Ub(50) = 15, Uc(110) = 10; the application utility is the
	// sum, 25.
	ub := MustStep([]Time{30, 70}, []float64{30, 15})
	uc := MustStep([]Time{80, 130}, []float64{20, 10})
	if got := ub.Value(50) + uc.Value(110); got != 25 {
		t.Errorf("Ub(50)+Uc(110) = %g, want 25", got)
	}
}

func TestLinearDrop(t *testing.T) {
	u, err := NewTable(Linear, Point{T: 50, V: 100}, Point{T: 150, V: 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    Time
		want float64
	}{
		{0, 100}, {50, 100}, {100, 50}, {125, 25}, {150, 0}, {400, 0},
	}
	for _, c := range cases {
		if got := u.Value(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("U(%d) = %g, want %g", c.t, got, c.want)
		}
	}
	if u.Horizon() != 150 {
		t.Errorf("Horizon() = %d, want 150", u.Horizon())
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(Step); err == nil {
		t.Error("empty table should be rejected")
	}
	if _, err := NewTable(Step, Point{10, 5}, Point{10, 3}); err == nil {
		t.Error("duplicate times should be rejected")
	}
	if _, err := NewTable(Step, Point{10, 5}, Point{20, 7}); err == nil {
		t.Error("increasing values should be rejected")
	}
	if _, err := NewTable(Step, Point{10, -1}); err == nil {
		t.Error("negative values should be rejected")
	}
	if _, err := NewStep([]Time{10}, []float64{1, 2}); err == nil {
		t.Error("mismatched slice lengths should be rejected")
	}
}

func TestZeroAndScaled(t *testing.T) {
	var z Zero
	if z.Value(0) != 0 || z.Value(1000) != 0 {
		t.Error("Zero must be identically 0")
	}
	u := MustStep([]Time{100}, []float64{30})
	s := Scaled{F: u, Alpha: 2.0 / 3.0}
	if got, want := s.Value(50), 20.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Scaled.Value(50) = %g, want %g", got, want)
	}
	if s.Horizon() != u.Horizon() {
		t.Error("Scaled must preserve the horizon")
	}
}

func TestTableString(t *testing.T) {
	u := MustStep([]Time{90}, []float64{40})
	if got := u.String(); got != "step{90:40 91:0}" {
		t.Errorf("String() = %q", got)
	}
	l, err := NewTable(Linear, Point{T: 0, V: 10}, Point{T: 5, V: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.String(); got != "linear{0:10 5:0}" {
		t.Errorf("String() = %q", got)
	}
}

// TestTableNonIncreasingProperty checks monotonicity of arbitrary generated
// tables at arbitrary probe points.
func TestTableNonIncreasingProperty(t *testing.T) {
	check := func(seed int64, linear bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		times := make([]Time, n)
		seenT := map[Time]bool{}
		for i := range times {
			for {
				x := Time(rng.Intn(1000))
				if !seenT[x] {
					seenT[x] = true
					times[i] = x
					break
				}
			}
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		vals := make([]float64, n)
		v := 100 * rng.Float64()
		for i := range vals {
			vals[i] = v
			v -= rng.Float64() * 20
			if v < 0 {
				v = 0
			}
		}
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{T: times[i], V: vals[i]}
		}
		mode := Step
		if linear {
			mode = Linear
		}
		tb, err := NewTable(mode, pts...)
		if err != nil {
			t.Logf("unexpected construction error: %v", err)
			return false
		}
		prev := math.Inf(1)
		for probe := Time(-10); probe < 1100; probe += 7 {
			got := tb.Value(probe)
			if got > prev+1e-9 {
				t.Logf("value increased at t=%d: %g > %g (table %v)", probe, got, prev, tb)
				return false
			}
			if got < 0 {
				t.Logf("negative value at t=%d: %g", probe, got)
				return false
			}
			prev = got
		}
		// Beyond the horizon the function must be flat.
		h := tb.Horizon()
		if tb.Value(h) != tb.Value(h+1000) {
			t.Logf("function not flat after horizon %d", h)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// coefficientsInOrder is CoefficientsInto with the identity visiting order
// 0..n-1, for test graphs whose indices are already topologically sorted.
func coefficientsInOrder(preds [][]int, status []StaleStatus) []float64 {
	order := make([]int, len(preds))
	for i := range order {
		order[i] = i
	}
	alpha := make([]float64, len(preds))
	CoefficientsInto(alpha, order, preds, status)
	return alpha
}

func TestCoefficientsPaperExample(t *testing.T) {
	// Paper §2.1: P3 has predecessors P1 and P2. P1 dropped, P2 and P3
	// executed: α3 = (1 + 0 + 1)/(1 + 2) = 2/3. P4, the only successor of
	// P3, executed: α4 = (1 + 2/3)/(1 + 1) = 5/6.
	preds := [][]int{
		{},     // P1
		{},     // P2
		{0, 1}, // P3 <- P1, P2
		{2},    // P4 <- P3
	}
	status := []StaleStatus{Dropped, Executed, Executed, Executed}
	alpha := coefficientsInOrder(preds, status)
	want := []float64{0, 1, 2.0 / 3.0, 5.0 / 6.0}
	for i := range want {
		if math.Abs(alpha[i]-want[i]) > 1e-12 {
			t.Errorf("alpha[%d] = %g, want %g", i, alpha[i], want[i])
		}
	}
}

func TestCoefficientsAllExecuted(t *testing.T) {
	preds := [][]int{{}, {0}, {0, 1}, {1, 2}}
	status := []StaleStatus{Executed, Executed, Executed, Executed}
	alpha := coefficientsInOrder(preds, status)
	for i, a := range alpha {
		if math.Abs(a-1) > 1e-12 {
			t.Errorf("alpha[%d] = %g, want 1 when nothing is dropped", i, a)
		}
	}
}

// TestCoefficientsRangeProperty: α is always within [0, 1], zero exactly for
// dropped processes, and equal to 1 iff no transitive input is stale.
func TestCoefficientsRangeProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		preds := make([][]int, n)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if rng.Float64() < 0.3 {
					preds[i] = append(preds[i], j)
				}
			}
		}
		status := make([]StaleStatus, n)
		anyDropped := false
		for i := range status {
			if rng.Float64() < 0.3 {
				status[i] = Dropped
				anyDropped = true
			}
		}
		alpha := coefficientsInOrder(preds, status)
		// Compute "tainted" reachability from dropped processes.
		tainted := make([]bool, n)
		for i := 0; i < n; i++ {
			if status[i] == Dropped {
				tainted[i] = true
				continue
			}
			for _, j := range preds[i] {
				if tainted[j] {
					tainted[i] = true
				}
			}
		}
		for i, a := range alpha {
			if a < 0 || a > 1 {
				t.Logf("alpha[%d]=%g out of range", i, a)
				return false
			}
			if status[i] == Dropped && a != 0 {
				t.Logf("dropped process %d has alpha %g", i, a)
				return false
			}
			if status[i] == Executed {
				if tainted[i] && a >= 1 {
					t.Logf("tainted process %d has alpha %g", i, a)
					return false
				}
				if !tainted[i] && math.Abs(a-1) > 1e-12 {
					t.Logf("clean process %d has alpha %g != 1", i, a)
					return false
				}
			}
		}
		_ = anyDropped
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
