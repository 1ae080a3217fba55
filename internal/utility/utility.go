package utility

import (
	"errors"
	"fmt"
	"math"
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

// Spanner is the optional interface of a Function that knows where its
// value is constant: Span(t) returns a closed interval [lo, hi] containing
// t on which Value is bitwise equal to Value(t), with -Infinity and
// Infinity for unbounded ends. The interval may be narrower than the true
// one, never wider. Evaluators that probe a function at many nearby times
// use it to skip probes that cannot change the result.
type Spanner interface {
	Span(t Time) (lo, hi Time)
}

// spanOf is f's Span at t, or the zero-width [t, t] when f does not
// implement Spanner.
func spanOf(f Function, t Time) (lo, hi Time) {
	if s, ok := f.(Spanner); ok {
		return s.Span(t)
	}
	return t, t
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

var (
	_ Function = (*Table)(nil)
	_ Spanner  = (*Table)(nil)
)

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

// segment returns the index i with T_{i-1} < t <= T_i, for T_0 < t < T_last.
// Value and ValueSpan both locate t through it, so they agree on the
// segment.
func (tb *Table) segment(t Time) int {
	pts := tb.points
	i, j := 0, len(pts)
	for i < j { // sort.Search, written out so that it inlines
		h := int(uint(i+j) >> 1)
		if pts[h].T < t {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// inner returns U(t) on segment i, for T_{i-1} < t <= T_i.
func (tb *Table) inner(i int, t Time) float64 {
	pts := tb.points
	if pts[i].T == t || tb.mode != Linear {
		// Step: the value of the upcoming breakpoint holds.
		return pts[i].V
	}
	a, b := pts[i-1], pts[i]
	frac := float64(t-a.T) / float64(b.T-a.T)
	return a.V + frac*(b.V-a.V)
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
	return tb.inner(tb.segment(t), t)
}

// Span implements Spanner. A Step table reports the whole maximal run of
// equal steps around t, so Value changes just outside each finite end. A
// Linear table reports its flat ends, and [t, t] in between.
func (tb *Table) Span(t Time) (lo, hi Time) {
	_, lo, hi = tb.ValueSpan(t)
	return lo, hi
}

// ValueSpan returns Value(t) and Span(t) from one segment search, for
// evaluators that read both at every probe.
func (tb *Table) ValueSpan(t Time) (v float64, lo, hi Time) {
	pts := tb.points
	last := len(pts) - 1
	// Segment i holds over (T_{i-1}, T_i]; the first extends down to
	// -Infinity and the last up to Infinity.
	i := last
	switch {
	case t <= pts[0].T:
		if tb.mode == Linear {
			return pts[0].V, -Infinity, pts[0].T
		}
		i = 0
	case t < pts[last].T:
		i = tb.segment(t)
		if tb.mode == Linear {
			return tb.inner(i, t), t, t
		}
	case tb.mode == Linear:
		return pts[last].V, pts[last].T, Infinity
	}
	v = pts[i].V
	bits := math.Float64bits(v)
	a, b := i, i
	for a > 0 && math.Float64bits(pts[a-1].V) == bits {
		a--
	}
	for b < last && math.Float64bits(pts[b+1].V) == bits {
		b++
	}
	lo, hi = -Infinity, Infinity
	if a > 0 {
		lo = pts[a-1].T + 1
	}
	if b < last {
		hi = pts[b].T
	}
	return v, lo, hi
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

var (
	_ Function = Zero{}
	_ Spanner  = Zero{}
)

// Value implements Function.
func (Zero) Value(Time) float64 { return 0 }

// Horizon implements Function.
func (Zero) Horizon() Time { return 0 }

// Span implements Spanner: Zero is constant everywhere.
func (Zero) Span(Time) (lo, hi Time) { return -Infinity, Infinity }

// Scaled wraps a Function, multiplying its value by a constant coefficient
// in [0, 1]. It implements the degraded utility U*(t) = α·U(t).
type Scaled struct {
	F     Function
	Alpha float64
}

var (
	_ Function = Scaled{}
	_ Spanner  = Scaled{}
)

// Value implements Function.
func (s Scaled) Value(t Time) float64 { return s.Alpha * s.F.Value(t) }

// Horizon implements Function.
func (s Scaled) Horizon() Time { return s.F.Horizon() }

// Span implements Spanner through the wrapped function.
func (s Scaled) Span(t Time) (lo, hi Time) { return spanOf(s.F, t) }

// Shifted wraps a Function, translating it along the time axis:
// Value(t) = F(t - By). It is used when a process graph is replicated over
// the hyper-period: the j-th activation of a soft process worth U(t) in its
// own period is worth U(t - j·T) on the hyper-period time line.
type Shifted struct {
	F  Function
	By Time
}

var (
	_ Function = Shifted{}
	_ Spanner  = Shifted{}
)

// Value implements Function.
func (s Shifted) Value(t Time) float64 { return s.F.Value(t - s.By) }

// Horizon implements Function.
func (s Shifted) Horizon() Time { return s.F.Horizon() + s.By }

// Span implements Spanner through the wrapped function, translated back
// onto the caller's time line. Unbounded ends stay unbounded.
func (s Shifted) Span(t Time) (lo, hi Time) {
	lo, hi = spanOf(s.F, t-s.By)
	if lo > -Infinity {
		lo += s.By
	}
	if hi < Infinity {
		hi += s.By
	}
	return lo, hi
}
