package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/utility"
)

// withUtilities rebuilds app with every soft utility replaced by
// f(id, utility).
func withUtilities(t *testing.T, app *model.Application, f func(model.ProcessID, utility.Function) utility.Function) *model.Application {
	t.Helper()
	out := model.NewApplication(app.Name(), app.Period(), app.K(), app.Mu())
	for id := model.ProcessID(0); int(id) < app.N(); id++ {
		p := app.Proc(id)
		if p.Kind == model.Soft && p.Utility != nil {
			p.Utility = f(id, p.Utility)
		}
		out.AddProcess(p)
	}
	for id := model.ProcessID(0); int(id) < app.N(); id++ {
		for _, s := range app.Succs(id) {
			out.MustAddEdge(id, s)
		}
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// opaqueUtility hides its function's Span: Value and Horizon only.
type opaqueUtility struct{ utility.Function }

// windowApps are the applications TestSuffixEvalWindowMatchesWalk sweeps:
// generated staircase apps of 10 to 40 processes (one under checkpoint
// recovery), a merged two-rate app whose later activations carry Shifted
// utilities, a Linear-utility app, and an app with one utility that has
// no Span.
func windowApps(t *testing.T) map[string]*model.Application {
	t.Helper()
	out := make(map[string]*model.Application)
	for _, n := range []int{10, 20, 30, 40} {
		app, err := gen.Generate(rand.New(rand.NewSource(int64(n))), gen.Default(n))
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("gen%d", n)] = app
	}
	gen20 := out["gen20"]
	cp, err := gen20.WithRecovery(model.CheckpointModel(40, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	out["gen20-checkpoint"] = cp

	g2 := model.NewApplication("g2", 150, 1, 10)
	a := g2.AddProcess(model.Process{Name: "A", Kind: model.Soft, BCET: 10, AET: 20, WCET: 30,
		Utility: utility.MustStep([]model.Time{40, 90}, []float64{30, 10})})
	b := g2.AddProcess(model.Process{Name: "B", Kind: model.Soft, BCET: 5, AET: 15, WCET: 25,
		Utility: utility.MustStep([]model.Time{60, 120, 140}, []float64{25, 15, 5})})
	g2.MustAddEdge(a, b)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	merged, err := model.Merge("two-rate", 1, 10, apps.Fig1(), g2)
	if err != nil {
		t.Fatal(err)
	}
	out["merged"] = merged

	out["linear"] = withUtilities(t, gen20, func(_ model.ProcessID, u utility.Function) utility.Function {
		return utility.MustTable(utility.Linear, u.(*utility.Table).Points()...)
	})

	// The opaque utility goes to the first soft process the schedule
	// executes, so the suffixes from its start reach it.
	base, err := FTSS(gen20)
	if err != nil {
		t.Fatal(err)
	}
	hide := model.NoProcess
	for _, en := range base.Entries {
		if gen20.ProcRef(en.Proc).Kind == model.Soft {
			hide = en.Proc
			break
		}
	}
	out["no-span"] = withUtilities(t, gen20, func(id model.ProcessID, u utility.Function) utility.Function {
		if id == hide {
			return opaqueUtility{u}
		}
		return u
	})
	return out
}

// bisectionOrder lists [lo, hi] breadth-first by midpoints, the order in
// which nested bisections probe a range.
func bisectionOrder(lo, hi Time) []Time {
	var out []Time
	q := [][2]Time{{lo, hi}}
	for len(q) > 0 {
		a, b := q[0][0], q[0][1]
		q = q[1:]
		if a > b {
			continue
		}
		mid := a + (b-a)/2
		out = append(out, mid)
		q = append(q, [2]Time{a, mid - 1}, [2]Time{mid + 1, b})
	}
	return out
}

// TestSuffixEvalWindowMatchesWalk: an evaluator that answers from its
// step window returns, bit for bit, what a fresh evaluator's full walk
// returns, whatever order the start times are probed in.
func TestSuffixEvalWindowMatchesWalk(t *testing.T) {
	for name, app := range windowApps(t) {
		s, err := FTSS(app)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dset := droppedSet(app, s)
		dropped := make([]bool, app.N())
		for id := range dropped {
			dropped[id] = dset.Has(model.ProcessID(id))
		}
		n := len(s.Entries)
		for _, from := range []int{0, n / 3, 2 * n / 3} {
			suffix := s.Entries[from:]
			for _, scen := range []int{1, 8} {
				label := fmt.Sprintf("%s suffix[%d:] scenarios=%d", name, from, scen)
				lo, hi := Time(0), max(newSuffixEval(app, suffix, dropped, scen).horizon(), app.Period())+10
				want := make([]uint64, hi-lo+1)
				var fwd, back []Time
				for tt := lo; tt <= hi; tt++ {
					want[tt-lo] = math.Float64bits(newSuffixEval(app, suffix, dropped, scen).from(tt))
					fwd = append(fwd, tt)
					back = append(back, hi-(tt-lo))
				}
				for order, probes := range map[string][]Time{
					"forward": fwd, "backward": back, "bisection": bisectionOrder(lo, hi),
				} {
					e := newSuffixEval(app, suffix, dropped, scen)
					cached := 0
					for _, tt := range probes {
						if e.winLo <= tt && tt <= e.winHi {
							cached++
						}
						if got := math.Float64bits(e.from(tt)); got != want[tt-lo] {
							t.Fatalf("%s %s: from(%d) = %g, a fresh walk gives %g (window [%d, %d])",
								label, order, tt, math.Float64frombits(got), math.Float64frombits(want[tt-lo]),
								e.winLo, e.winHi)
						}
					}
					if name != "linear" && name != "no-span" && order == "forward" && cached == 0 {
						t.Errorf("%s: no probe of a staircase suffix was answered from the window", label)
					}
				}
			}
		}
	}
}

// TestSuffixEvalWindowWithoutSpan: an entry whose utility has no Span
// pins the window to the probed tick.
func TestSuffixEvalWindowWithoutSpan(t *testing.T) {
	app := windowApps(t)["no-span"]
	s, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	none := make([]bool, app.N())
	e := newSuffixEval(app, s.Entries, none, 8)
	for _, tt := range []Time{0, 17, 400} {
		e.from(tt)
		if e.winLo != tt || e.winHi != tt {
			t.Errorf("from(%d): window [%d, %d], want the zero-width [%d, %d]", tt, e.winLo, e.winHi, tt, tt)
		}
	}
}
