package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
)

func TestPartitionSimpleWindow(t *testing.T) {
	// win on [10, 20] within sweep [0, 50].
	win := func(tt Time) bool { return tt >= 10 && tt <= 20 }
	gain := func(tt Time) float64 { return 2 }
	ivs := partition(0, 50, 64, win, gain)
	if len(ivs) != 1 {
		t.Fatalf("intervals = %v, want one", ivs)
	}
	if ivs[0].Lo != 10 || ivs[0].Hi != 20 {
		t.Errorf("interval = [%d,%d], want [10,20]", ivs[0].Lo, ivs[0].Hi)
	}
	if ivs[0].Gain != 2 {
		t.Errorf("gain = %g, want 2", ivs[0].Gain)
	}
}

func TestPartitionMultipleWindows(t *testing.T) {
	win := func(tt Time) bool { return (tt >= 5 && tt <= 9) || (tt >= 30 && tt <= 42) }
	gain := func(tt Time) float64 { return 1 }
	ivs := partition(0, 60, 61, win, gain) // exact sweep: stride 1
	if len(ivs) != 2 {
		t.Fatalf("intervals = %v, want two", ivs)
	}
	if ivs[0].Lo != 5 || ivs[0].Hi != 9 || ivs[1].Lo != 30 || ivs[1].Hi != 42 {
		t.Errorf("intervals = %v", ivs)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	if ivs := partition(10, 5, 8, nil, nil); ivs != nil {
		t.Error("empty range must yield nil")
	}
	all := func(Time) bool { return true }
	one := func(Time) float64 { return 1 }
	ivs := partition(7, 7, 8, all, one)
	if len(ivs) != 1 || ivs[0].Lo != 7 || ivs[0].Hi != 7 {
		t.Errorf("point range = %v", ivs)
	}
	none := func(Time) bool { return false }
	if ivs := partition(0, 100, 16, none, one); len(ivs) != 0 {
		t.Error("no-win sweep must yield nothing")
	}
}

// TestPartitionBoundaryRefinement: with a coarse stride, refined boundaries
// must still be exact for a single wide window.
func TestPartitionBoundaryRefinement(t *testing.T) {
	win := func(tt Time) bool { return tt >= 123 && tt <= 887 }
	gain := func(Time) float64 { return 1 }
	ivs := partition(0, 1000, 16, win, gain) // stride 62
	if len(ivs) != 1 {
		t.Fatalf("intervals = %v", ivs)
	}
	if ivs[0].Lo != 123 || ivs[0].Hi != 887 {
		t.Errorf("refined interval = [%d,%d], want [123,887]", ivs[0].Lo, ivs[0].Hi)
	}
}

// TestPartitionSoundnessProperty: every reported interval endpoint must
// satisfy win, for random single-window predicates and strides.
func TestPartitionSoundnessProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lo := Time(rng.Intn(100))
		hi := lo + Time(1+rng.Intn(1000))
		a := lo + Time(rng.Int63n(int64(hi-lo+1)))
		b := a + Time(rng.Int63n(int64(hi-a+1)))
		win := func(tt Time) bool { return tt >= a && tt <= b }
		gain := func(Time) float64 { return 1 }
		samples := 2 + rng.Intn(64)
		for _, iv := range partition(lo, hi, samples, win, gain) {
			if !win(iv.Lo) || !win(iv.Hi) {
				t.Logf("seed %d: interval [%d,%d] outside window [%d,%d]", seed, iv.Lo, iv.Hi, a, b)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMaxSafeStart(t *testing.T) {
	app := apps.Fig1()
	p2 := app.IDByName("P2")
	entries := []schedule.Entry{{Proc: p2, Recoveries: 0}}
	// P2 alone (soft) only constrains the period 300: latest start is
	// 300 - 70 = 230.
	got := maxSafeStart(app, entries, 0, 1000, 0)
	if got != 230 {
		t.Errorf("maxSafeStart = %d, want 230", got)
	}
	// Unsafe even at lo.
	if got := maxSafeStart(app, entries, 250, 1000, 0); got != 249 {
		t.Errorf("unsafe lo: got %d, want lo-1", got)
	}
	// Hard process bounded by its deadline minus recovery.
	p1 := app.IDByName("P1")
	he := []schedule.Entry{{Proc: p1, Recoveries: 1}}
	// WCC = start + 70 + 80 <= 180 → start <= 30.
	if got := maxSafeStart(app, he, 0, 1000, 1); got != 30 {
		t.Errorf("hard maxSafeStart = %d, want 30", got)
	}
}

func TestKendallDistance(t *testing.T) {
	e := func(ids ...model.ProcessID) []schedule.Entry {
		out := make([]schedule.Entry, len(ids))
		for i, id := range ids {
			out[i] = schedule.Entry{Proc: id}
		}
		return out
	}
	if d := kendallDistance(e(1, 2, 3), e(1, 2, 3)); d != 0 {
		t.Errorf("identical = %d", d)
	}
	if d := kendallDistance(e(1, 2, 3), e(3, 2, 1)); d != 3 {
		t.Errorf("reversed = %d, want 3", d)
	}
	if d := kendallDistance(e(1, 2, 3), e(2, 1, 3)); d != 1 {
		t.Errorf("one swap = %d, want 1", d)
	}
	// Disjoint processes: no common pairs.
	if d := kendallDistance(e(1, 2), e(3, 4)); d != 0 {
		t.Errorf("disjoint = %d, want 0", d)
	}
	// Partial overlap.
	if d := kendallDistance(e(1, 2, 5), e(9, 2, 1)); d != 1 {
		t.Errorf("partial = %d, want 1", d)
	}
}

// TestSuffixEvalQuadratureDeterminism: the same (entries, dropped,
// scenarios) always produce identical evaluations, and the 1-scenario mode
// equals the plain AET walk.
func TestSuffixEvalQuadratureDeterminism(t *testing.T) {
	app := apps.Fig8()
	s, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	dset := droppedSet(app, s)
	dropped := make([]bool, app.N())
	for id := 0; id < app.N(); id++ {
		dropped[id] = dset.Has(model.ProcessID(id))
	}
	e1 := newSuffixEval(app, s.Entries, dropped, 8)
	e2 := newSuffixEval(app, s.Entries, dropped, 8)
	for tt := Time(0); tt < 200; tt += 5 {
		if e1.from(tt) != e2.from(tt) {
			t.Fatalf("non-deterministic evaluation at t=%d", tt)
		}
	}
	point := newSuffixEval(app, s.Entries, dropped, 1)
	c := schedule.ExpectedCompletions(app, s.Entries, 0)
	var want float64
	alpha := staleAlpha(app, dropped)
	for i, en := range s.Entries {
		if app.Proc(en.Proc).Kind == model.Soft {
			want += alpha[en.Proc] * app.UtilityOf(en.Proc).Value(c.Finish[i])
		}
	}
	if got := point.from(0); got != want {
		t.Errorf("point evaluation %g != AET walk %g", got, want)
	}
}

// TestSuffixEvalFig4b5: the paper's Fig. 4b5 decision as interval
// partitioning evaluates it. If P1 completes at its BCET 30, the suffix
// P2, P3 of S1 yields U2(80) + U3(140) = 40 + 30 = 70, beating the 60 of
// S2's suffix P3, P2 (U3(90) + U2(150) = 40 + 20).
func TestSuffixEvalFig4b5(t *testing.T) {
	app := apps.Fig1()
	p2, p3 := app.IDByName("P2"), app.IDByName("P3")
	none := make([]bool, app.N())
	s1 := newSuffixEval(app, []schedule.Entry{{Proc: p2}, {Proc: p3}}, none, 1)
	s2 := newSuffixEval(app, []schedule.Entry{{Proc: p3}, {Proc: p2}}, none, 1)
	if got := s1.from(30); got != 70 {
		t.Errorf("U(S1 | P1 done at 30) = %g, want 70", got)
	}
	if got := s2.from(30); got != 60 {
		t.Errorf("U(S2 | P1 done at 30) = %g, want 60", got)
	}
}

// TestQuadFracProperties: fractions lie in [0,1) and are identical for the
// same (sample, process) pair.
func TestQuadFracProperties(t *testing.T) {
	for j := 0; j < 16; j++ {
		for p := model.ProcessID(0); p < 50; p++ {
			f := quadFrac(j, 16, p)
			if f < 0 || f >= 1 {
				t.Fatalf("quadFrac(%d,16,%d) = %g", j, p, f)
			}
			if f != quadFrac(j, 16, p) {
				t.Fatal("quadFrac not deterministic")
			}
		}
	}
}

// TestFTQSDeterminism: tree synthesis is fully deterministic.
func TestFTQSDeterminism(t *testing.T) {
	app := apps.Fig8()
	t1, err := FTQS(app, FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := FTQS(app, FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	if t1.Format() != t2.Format() {
		t.Error("FTQS is not deterministic")
	}
}
