package utility

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// spanFunction is a Function under test together with its Span.
type spanFunction interface {
	Function
	Spanner
}

// checkSpan asserts the Span contract on every t in [from, to]: Span(t)
// contains t and Value is bitwise constant on it, clipped to [from, to].
// With maximal set, Value must also differ just outside each finite end.
func checkSpan(t *testing.T, name string, f spanFunction, from, to Time, maximal bool) {
	t.Helper()
	bits := func(x Time) uint64 { return math.Float64bits(f.Value(x)) }
	for x := from; x <= to; x++ {
		lo, hi := f.Span(x)
		if lo > x || hi < x {
			t.Fatalf("%s: Span(%d) = [%d, %d] does not contain %d", name, x, lo, hi, x)
		}
		v := bits(x)
		for y := max(lo, from); y <= min(hi, to); y++ {
			if bits(y) != v {
				t.Fatalf("%s: Span(%d) = [%d, %d] but Value(%d) = %g != Value(%d) = %g",
					name, x, lo, hi, y, f.Value(y), x, f.Value(x))
			}
		}
		if !maximal {
			continue
		}
		if lo > -Infinity && bits(lo-1) == v {
			t.Fatalf("%s: Span(%d) = [%d, %d] stops short: Value(%d) is unchanged", name, x, lo, hi, lo-1)
		}
		if hi < Infinity && bits(hi+1) == v {
			t.Fatalf("%s: Span(%d) = [%d, %d] stops short: Value(%d) is unchanged", name, x, lo, hi, hi+1)
		}
	}
}

// randomTable draws a table of one to six breakpoints with gaps of one to
// five ticks and integer values that may repeat, so equal neighbouring
// steps and single-tick segments both occur.
func randomTable(rng *rand.Rand, mode Interp) *Table {
	n := 1 + rng.Intn(6)
	pts := make([]Point, n)
	tm := Time(rng.Intn(20))
	v := float64(10 + rng.Intn(40))
	for i := range pts {
		pts[i] = Point{T: tm, V: v}
		tm += Time(1 + rng.Intn(5))
		if v > 0 && rng.Intn(3) > 0 {
			v -= float64(1 + rng.Intn(int(v)))
		}
	}
	return MustTable(mode, pts...)
}

// checkValueSpan asserts that the fused ValueSpan is (Value, Span), bit
// for bit, at every t within 2 of a breakpoint.
func checkValueSpan(t *testing.T, name string, tb *Table) {
	t.Helper()
	for _, p := range tb.points {
		for x := p.T - 2; x <= p.T+2; x++ {
			v, lo, hi := tb.ValueSpan(x)
			wlo, whi := tb.Span(x)
			if math.Float64bits(v) != math.Float64bits(tb.Value(x)) || lo != wlo || hi != whi {
				t.Fatalf("%s: ValueSpan(%d) = (%g, %d, %d), want (%g, %d, %d)",
					name, x, v, lo, hi, tb.Value(x), wlo, whi)
			}
		}
	}
}

// TestSpanContract: Value is bitwise constant on Span(t) for every t in
// [T_0-3, T_last+3] of random Step and Linear tables, NewStep staircases
// and the Zero, Scaled and Shifted wrappers; Step spans are maximal. A
// table's fused ValueSpan is its Value and Span around every breakpoint.
func TestSpanContract(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for k := 0; k < 400; k++ {
		for _, mode := range []Interp{Step, Linear} {
			tb := randomTable(rng, mode)
			pts := tb.points
			from, to := pts[0].T-3, pts[len(pts)-1].T+3
			step := mode == Step
			name := fmt.Sprintf("table %d %v", k, tb)
			checkSpan(t, name, tb, from, to, step)
			checkValueSpan(t, name, tb)
			checkSpan(t, name+" scaled", Scaled{F: tb, Alpha: 0.5}, from, to, step)
			by := Time(rng.Intn(100))
			checkSpan(t, name+" shifted", Shifted{F: tb, By: by}, from+by, to+by, step)
			checkSpan(t, name+" shifted scaled", Shifted{F: Scaled{F: tb, Alpha: 0.25}, By: by}, from+by, to+by, step)
		}
	}

	u2 := MustStep([]Time{90, 200, 250}, []float64{40, 20, 10})
	checkSpan(t, "NewStep", u2, 87, 254, true)
	checkValueSpan(t, "NewStep", u2)
	for _, c := range []struct{ t, lo, hi Time }{
		{0, -Infinity, 90}, {90, -Infinity, 90}, {91, 91, 200}, {250, 201, 250}, {251, 251, Infinity},
	} {
		if lo, hi := u2.Span(c.t); lo != c.lo || hi != c.hi {
			t.Errorf("NewStep Span(%d) = [%d, %d], want [%d, %d]", c.t, lo, hi, c.lo, c.hi)
		}
	}
	lin := MustTable(Linear, Point{T: 50, V: 100}, Point{T: 150, V: 0})
	for _, c := range []struct{ t, lo, hi Time }{
		{10, -Infinity, 50}, {50, -Infinity, 50}, {51, 51, 51}, {149, 149, 149}, {150, 150, Infinity},
	} {
		if lo, hi := lin.Span(c.t); lo != c.lo || hi != c.hi {
			t.Errorf("Linear Span(%d) = [%d, %d], want [%d, %d]", c.t, lo, hi, c.lo, c.hi)
		}
	}
	if lo, hi := (Shifted{F: u2, By: 1000}).Span(1000); lo != -Infinity || hi != 1090 {
		t.Errorf("shifted NewStep Span(1000) = [%d, %d], want [-Infinity, 1090]", lo, hi)
	}

	checkSpan(t, "Zero", Zero{}, -3, 3, false)
	if lo, hi := (Zero{}).Span(7); lo != -Infinity || hi != Infinity {
		t.Errorf("Zero Span = [%d, %d], want unbounded", lo, hi)
	}
}

// noSpan is a Function without Span.
type noSpan struct{}

func (noSpan) Value(t Time) float64 { return float64(100 - t) }
func (noSpan) Horizon() Time        { return 100 }

// TestSpanWithoutSpanner: a function without Span gets the zero-width
// window, also through the wrappers.
func TestSpanWithoutSpanner(t *testing.T) {
	for _, x := range []Time{-5, 0, 42} {
		if lo, hi := spanOf(noSpan{}, x); lo != x || hi != x {
			t.Errorf("spanOf(noSpan, %d) = [%d, %d]", x, lo, hi)
		}
		if lo, hi := (Scaled{F: noSpan{}, Alpha: 0.5}).Span(x); lo != x || hi != x {
			t.Errorf("Scaled{noSpan}.Span(%d) = [%d, %d]", x, lo, hi)
		}
		if lo, hi := (Shifted{F: noSpan{}, By: 30}).Span(x); lo != x || hi != x {
			t.Errorf("Shifted{noSpan}.Span(%d) = [%d, %d]", x, lo, hi)
		}
	}
}
