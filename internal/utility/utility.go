package utility

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Time is the discrete time base of the library, in milliseconds. The
// interval-partitioning step of the quasi-static scheduler (paper §5.1)
// explicitly assumes integer completion times, so an integer time base is
// part of the model, not merely an implementation convenience.
type Time int64

// Infinity is a time value later than any completion time that can occur in
// a valid schedule. It is used as the open upper bound of switching
// intervals.
const Infinity Time = math.MaxInt64 / 4

// Function is a non-increasing time/utility function U(t).
//
// Implementations must be monotonically non-increasing: for any t1 <= t2,
// Value(t1) >= Value(t2). Values are non-negative.
type Function interface {
	// Value returns U(t), the utility obtained if the process completes at
	// time t.
	Value(t Time) float64

	// Horizon returns the earliest time h such that Value(t) == Value(h)
	// for all t >= h, i.e. the point after which the function is flat
	// (usually at zero). Sweeps over completion times may stop at the
	// horizon.
	Horizon() Time
}

// Point is a breakpoint of a tabulated utility function.
type Point struct {
	T Time    // completion time
	V float64 // utility at T
}

// Interp selects how a Table interpolates between breakpoints.
type Interp int

const (
	// Step treats each breakpoint (T_i, V_i) as "worth V_i up to and
	// including T_i": U(t) = V_i for T_{i-1} < t <= T_i, and
	// U(t) = V_0 for t <= T_0. This matches the staircase-shaped
	// functions used in the paper's examples (Figs. 2, 4, 8).
	Step Interp = iota

	// Linear interpolates linearly between consecutive breakpoints.
	Linear
)

// Table is a piecewise utility function defined by breakpoints.
//
// Semantics: U(t) = V_0 for t <= T_0; U(t) = V_last for t >= T_last; in
// between, the value follows the configured interpolation mode. Breakpoints
// must be strictly increasing in time and non-increasing in value.
type Table struct {
	points []Point
	mode   Interp
}

var _ Function = (*Table)(nil)

// NewTable builds a tabulated utility function, validating monotonicity.
func NewTable(mode Interp, points ...Point) (*Table, error) {
	if len(points) == 0 {
		return nil, errors.New("utility: table needs at least one breakpoint")
	}
	for i := 1; i < len(points); i++ {
		if points[i].T <= points[i-1].T {
			return nil, fmt.Errorf("utility: breakpoint times must be strictly increasing (t[%d]=%d, t[%d]=%d)",
				i-1, points[i-1].T, i, points[i].T)
		}
		if points[i].V > points[i-1].V {
			return nil, fmt.Errorf("utility: values must be non-increasing (v[%d]=%g, v[%d]=%g)",
				i-1, points[i-1].V, i, points[i].V)
		}
	}
	for i, p := range points {
		if p.V < 0 {
			return nil, fmt.Errorf("utility: values must be non-negative (v[%d]=%g)", i, p.V)
		}
	}
	cp := make([]Point, len(points))
	copy(cp, points)
	return &Table{points: cp, mode: mode}, nil
}

// MustTable is NewTable that panics on invalid input; intended for
// statically-known fixtures and tests.
func MustTable(mode Interp, points ...Point) *Table {
	t, err := NewTable(mode, points...)
	if err != nil {
		panic(err)
	}
	return t
}

// NewStep builds a staircase function: value vs[i] holds for
// ts[i-1] < t <= ts[i] (v0 before the first step time), and 0 after the last
// step time. Example: NewStep([]Time{90, 200}, []float64{40, 20}) is 40 up
// to (and including) 90 ms, 20 up to 200 ms, and 0 afterwards.
func NewStep(ts []Time, vs []float64) (*Table, error) {
	if len(ts) != len(vs) {
		return nil, fmt.Errorf("utility: NewStep needs matching slices (got %d times, %d values)", len(ts), len(vs))
	}
	pts := make([]Point, 0, len(ts)+1)
	for i := range ts {
		pts = append(pts, Point{T: ts[i], V: vs[i]})
	}
	if len(pts) > 0 {
		pts = append(pts, Point{T: ts[len(ts)-1] + 1, V: 0})
	}
	return NewTable(Step, pts...)
}

// MustStep is NewStep that panics on invalid input.
func MustStep(ts []Time, vs []float64) *Table {
	t, err := NewStep(ts, vs)
	if err != nil {
		panic(err)
	}
	return t
}

// Value implements Function.
func (tb *Table) Value(t Time) float64 {
	pts := tb.points
	if t <= pts[0].T {
		return pts[0].V
	}
	last := pts[len(pts)-1]
	if t >= last.T {
		return last.V
	}
	// Find the segment [pts[i], pts[i+1]) containing t.
	i := sort.Search(len(pts), func(j int) bool { return pts[j].T >= t })
	// pts[i].T >= t > pts[i-1].T, with 0 < i < len(pts).
	if pts[i].T == t {
		return pts[i].V
	}
	switch tb.mode {
	case Linear:
		a, b := pts[i-1], pts[i]
		frac := float64(t-a.T) / float64(b.T-a.T)
		return a.V + frac*(b.V-a.V)
	default: // Step: value of the upcoming breakpoint's predecessor holds.
		return pts[i].V
	}
}

// Horizon implements Function.
func (tb *Table) Horizon() Time {
	return tb.points[len(tb.points)-1].T
}

// Points returns a copy of the table's breakpoints.
func (tb *Table) Points() []Point {
	cp := make([]Point, len(tb.points))
	copy(cp, tb.points)
	return cp
}

// Mode returns the interpolation mode.
func (tb *Table) Mode() Interp { return tb.mode }

// String renders the table compactly, e.g. "step{90:40 200:20 201:0}".
func (tb *Table) String() string {
	var sb strings.Builder
	if tb.mode == Linear {
		sb.WriteString("linear{")
	} else {
		sb.WriteString("step{")
	}
	for i, p := range tb.points {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d:%g", p.T, p.V)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Zero is the utility function that is identically zero. It is the function
// implicitly attached to hard processes and to dropped soft processes.
type Zero struct{}

var _ Function = Zero{}

// Value implements Function.
func (Zero) Value(Time) float64 { return 0 }

// Horizon implements Function.
func (Zero) Horizon() Time { return 0 }

// Scaled wraps a Function, multiplying its value by a constant coefficient
// in [0, 1]. It implements the degraded utility U*(t) = α·U(t).
type Scaled struct {
	F     Function
	Alpha float64
}

var _ Function = Scaled{}

// Value implements Function.
func (s Scaled) Value(t Time) float64 { return s.Alpha * s.F.Value(t) }

// Horizon implements Function.
func (s Scaled) Horizon() Time { return s.F.Horizon() }

// Shifted wraps a Function, translating it along the time axis:
// Value(t) = F(t - By). It is used when a process graph is replicated over
// the hyper-period: the j-th activation of a soft process worth U(t) in its
// own period is worth U(t - j·T) on the hyper-period time line.
type Shifted struct {
	F  Function
	By Time
}

var _ Function = Shifted{}

// Value implements Function.
func (s Shifted) Value(t Time) float64 { return s.F.Value(t - s.By) }

// Horizon implements Function.
func (s Shifted) Horizon() Time { return s.F.Horizon() + s.By }
