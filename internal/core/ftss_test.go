package core

import (
	"math/rand"
	"slices"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/gen"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
	"ftsched/internal/utility"
)

func names(app *model.Application, entries []schedule.Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = app.Proc(e.Proc).Name
	}
	return out
}

func orderIs(app *model.Application, entries []schedule.Entry, want ...string) bool {
	got := names(app, entries)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// TestFTSSFig1PrefersS2: the paper's Fig. 4 discussion concludes that for
// the Fig. 1 application the static scheduler must prefer the order
// S2 = P1, P3, P2 (average-case utility 60) over S1 = P1, P2, P3 (utility
// 30).
func TestFTSSFig1PrefersS2(t *testing.T) {
	app := apps.Fig1()
	s, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	if !orderIs(app, s.Entries, "P1", "P3", "P2") {
		t.Fatalf("FTSS order = %v, want [P1 P3 P2]", names(app, s.Entries))
	}
	if got := schedule.ExpectedUtility(app, s); got != 60 {
		t.Errorf("expected utility = %g, want 60", got)
	}
	if err := schedule.Validate(app, s); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
	if err := schedule.CheckSchedulable(app, s.Entries, 0, app.K()); err != nil {
		t.Errorf("schedule not fault-tolerant: %v", err)
	}
	// P1 is hard: full recovery budget.
	if s.Entries[0].Recoveries != 1 {
		t.Errorf("P1 recoveries = %d, want 1", s.Entries[0].Recoveries)
	}
	// Fig. 4b4: re-executing P3 cannot complete within T and is not
	// beneficial, so P3 carries no recovery, while P2 (last) can afford
	// one: makespan 220 + max(80, 80) = 300 <= 300.
	if s.Entries[1].Recoveries != 0 {
		t.Errorf("P3 recoveries = %d, want 0", s.Entries[1].Recoveries)
	}
	if s.Entries[2].Recoveries != 1 {
		t.Errorf("P2 recoveries = %d, want 1", s.Entries[2].Recoveries)
	}
}

// TestFTSSFig4cDropsP2: with the period reduced to 250 ms (Fig. 4c) the
// worst-case fault scenario no longer accommodates all three processes; the
// paper drops P2 and keeps S3 = P1, P3 (utility 40 beats S4's 20).
func TestFTSSFig4cDropsP2(t *testing.T) {
	app := apps.Fig1ReducedPeriod()
	s, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Contains(app.IDByName("P3")) {
		t.Errorf("P3 should be kept, schedule = %s", s.Format(app))
	}
	if s.Contains(app.IDByName("P2")) {
		// P2 may only stay if the worst case still fits; verify.
		if err := schedule.CheckSchedulable(app, s.Entries, 0, app.K()); err != nil {
			t.Errorf("P2 kept but schedule unsafe: %v", err)
		}
	}
	if err := schedule.CheckSchedulable(app, s.Entries, 0, app.K()); err != nil {
		t.Errorf("schedule not fault-tolerant: %v", err)
	}
	// The hard process must still tolerate the fault.
	if s.Entries[0].Proc != app.IDByName("P1") || s.Entries[0].Recoveries != 1 {
		t.Errorf("P1 must come first with 1 recovery, got %s", s.Format(app))
	}
}

// TestFTSSFig8: the Fig. 8 application cannot keep all three soft
// processes in the worst case (ΣWCET = 180 plus 80 of two-fault recovery
// slack exceeds T = 220), so exactly one soft process must be dropped; the
// dropping heuristic keeps P2 (the paper's walk-through: U(S2') = 80 >
// U(S2”) = 50) and the hard processes are always kept with full recovery.
func TestFTSSFig8(t *testing.T) {
	app := apps.Fig8()
	s, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"P1", "P5"} {
		if !s.Contains(app.IDByName(n)) {
			t.Errorf("hard process %s dropped in %s", n, s.Format(app))
		}
	}
	if !s.Contains(app.IDByName("P2")) {
		t.Errorf("P2 must be kept (paper: U(S2') > U(S2'')): %s", s.Format(app))
	}
	softKept := 0
	for _, n := range []string{"P2", "P3", "P4"} {
		if s.Contains(app.IDByName(n)) {
			softKept++
		}
	}
	if softKept != 2 {
		t.Errorf("exactly one soft process must be dropped, kept %d: %s", softKept, s.Format(app))
	}
	if err := schedule.Validate(app, s); err != nil {
		t.Errorf("invalid: %v", err)
	}
	if err := schedulableWithK(app, s); err != nil {
		t.Errorf("not fault-tolerant: %v", err)
	}
	// P1 must be first (it is the only source and hard).
	if s.Entries[0].Proc != app.IDByName("P1") {
		t.Errorf("P1 not first: %s", s.Format(app))
	}
	// The surviving schedule should reach the best achievable expected
	// utility for this forced-drop situation (60 with our staircases).
	if got := schedule.ExpectedUtility(app, s); got < 60 {
		t.Errorf("expected utility = %g, want >= 60", got)
	}
}

// ftssStateAt returns a fresh FTSS state reset for a run after the
// executed and dropped processes, from start with kRem faults to tolerate,
// so a test can step the list scheduler by hand.
func ftssStateAt(app *model.Application, executed, dropped model.ProcSet, start Time, kRem int) *ftssState {
	st := newFTSSState(newFTSSTables(app))
	st.reset(executed, dropped, start, kRem)
	return st
}

func schedulableWithK(app *model.Application, s *schedule.FSchedule) error {
	return schedule.CheckSchedulable(app, s.Entries, 0, app.K())
}

// TestFig8DroppingEvaluation reproduces the S2'/S2” comparison directly:
// the projection with P2 present must exceed the projection with P2
// dropped (80 vs 50 in the paper's timing).
func TestFig8DroppingEvaluation(t *testing.T) {
	app := apps.Fig8()
	p1 := app.IDByName("P1")
	executed := model.NewProcSet(app.N())
	executed.Add(p1)
	st := ftssStateAt(app, executed, model.NewProcSet(app.N()), 30, app.K()) // after P1's WCET
	with, without := st.softProjection(model.NoProcess), st.softProjection(app.IDByName("P2"))
	if with <= without {
		t.Errorf("U(S2') = %g should exceed U(S2'') = %g", with, without)
	}
	// With the paper's completion chain P2@60, P3@90, P4@130 the utility
	// is 40+20+20 = 80; our greedy may order slightly differently but
	// must reach at least that value.
	if with < 80 {
		t.Errorf("U(S2') = %g, want >= 80", with)
	}
	// Without P2: P3@60 (30) + stale-degraded P4: 2/3 * U4(90) = 20.
	if without != 50 {
		t.Errorf("U(S2'') = %g, want 50", without)
	}
}

// TestFig8HardTailSchedulability reproduces the S2H check: scheduling P2
// right after P1 leaves the only unscheduled hard process P5 completing
// before its deadline 220 in the worst-case two-fault scenario.
func TestFig8HardTailSchedulability(t *testing.T) {
	app := apps.Fig8()
	p1 := app.IDByName("P1")
	executed := model.NewProcSet(app.N())
	executed.Add(p1)
	st := ftssStateAt(app, executed, model.NewProcSet(app.N()), 30, app.K())
	if !slices.Contains(st.schedulableSet(), app.IDByName("P2")) {
		t.Error("P2 must lead to a schedulable solution (paper: P5 completes at 170 <= 220)")
	}
}

// TestFTSSUnschedulable: a hard process whose deadline cannot absorb k
// re-executions makes the application unschedulable.
func TestFTSSUnschedulable(t *testing.T) {
	a := model.NewApplication("un", 1000, 2, 10)
	a.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 50, AET: 60, WCET: 80, Deadline: 100})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := FTSS(a); err == nil {
		t.Fatal("expected unschedulable")
	}
}

// TestFTSSForcedDropping: two soft processes ahead of a tight hard deadline;
// the scheduler must drop (or defer) enough soft work to protect the hard
// process. The cheap soft process is sacrificed first.
func TestFTSSForcedDropping(t *testing.T) {
	a := model.NewApplication("fd", 500, 0, 5)
	s1 := a.AddProcess(model.Process{Name: "SoftCheap", Kind: model.Soft, BCET: 100, AET: 100, WCET: 100,
		Utility: utility.MustStep([]model.Time{400}, []float64{5})})
	s2 := a.AddProcess(model.Process{Name: "SoftRich", Kind: model.Soft, BCET: 100, AET: 100, WCET: 100,
		Utility: utility.MustStep([]model.Time{400}, []float64{500})})
	h := a.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 50, AET: 60, WCET: 80, Deadline: 200})
	_ = s1
	_ = s2
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := FTSS(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedulableWithK(a, s); err != nil {
		t.Fatalf("not schedulable: %v", err)
	}
	if !s.Contains(h) {
		t.Fatal("hard process missing")
	}
	// Only one of the two soft processes fits before H's deadline; the
	// rich one must be the survivor ahead of H, and H meets its deadline.
	idx := s.IndexOf(h)
	c := schedule.WorstCaseCompletions(a, s.Entries, 0, 0)
	if c.WorstCase[idx] > 200 {
		t.Errorf("H completes at %d > 200", c.WorstCase[idx])
	}
	if !s.Contains(s2) {
		t.Errorf("SoftRich should survive: %s", s.Format(a))
	}
}

// TestFTSSRespectsPrecedence: a soft successor is never scheduled before
// its predecessor.
func TestFTSSRespectsPrecedence(t *testing.T) {
	app := apps.Fig8()
	s, err := FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.Validate(app, s); err != nil {
		t.Fatal(err)
	}
	// P4 must come after both P2 and P3 (its predecessors).
	i4 := s.IndexOf(app.IDByName("P4"))
	if i4 >= 0 {
		for _, n := range []string{"P2", "P3"} {
			if i := s.IndexOf(app.IDByName(n)); i >= 0 && i > i4 {
				t.Errorf("%s scheduled after its successor P4", n)
			}
		}
	}
}

// TestSuffixFTSSAfterFault: completing the Fig. 1 application after P1
// recovered from the single fault (budget exhausted) still schedules the
// soft processes when time allows.
func TestSuffixFTSSAfterFault(t *testing.T) {
	app := apps.Fig1()
	p1 := app.IDByName("P1")
	// P1 re-executed, completing at 150 (worst case); no faults remain.
	suffix, err := SuffixFTSS(app, []model.ProcessID{p1}, nil, 150, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(suffix) == 0 {
		t.Fatal("suffix empty; soft processes should still fit")
	}
	// Makespan from 150: both soft fit (150 + 70 + 80 = 300 <= 300).
	if !schedule.Schedulable(app, suffix, 150, 0) {
		t.Error("suffix must be schedulable")
	}
	// Late start: only one soft process fits; the scheduler must drop.
	suffix2, err := SuffixFTSS(app, []model.ProcessID{p1}, nil, 240, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(suffix2) > 1 {
		t.Errorf("from t=240 only one soft process fits, got %d entries", len(suffix2))
	}
}

// TestFTSSHardOnlyEDF: with no soft processes, FTSS degenerates to
// earliest-deadline-first among ready hard processes.
func TestFTSSHardOnlyEDF(t *testing.T) {
	a := model.NewApplication("edf", 1000, 1, 5)
	h1 := a.AddProcess(model.Process{Name: "H1", Kind: model.Hard, BCET: 10, AET: 10, WCET: 10, Deadline: 900})
	h2 := a.AddProcess(model.Process{Name: "H2", Kind: model.Hard, BCET: 10, AET: 10, WCET: 10, Deadline: 100})
	h3 := a.AddProcess(model.Process{Name: "H3", Kind: model.Hard, BCET: 10, AET: 10, WCET: 10, Deadline: 500})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := FTSS(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []model.ProcessID{h2, h3, h1}
	for i, id := range want {
		if s.Entries[i].Proc != id {
			t.Fatalf("order = %v, want EDF [H2 H3 H1]", names(a, s.Entries))
		}
	}
	for _, e := range s.Entries {
		if e.Recoveries != 1 {
			t.Errorf("hard process %d recoveries = %d, want 1", e.Proc, e.Recoveries)
		}
	}
}

// TestFTSSDropsWorthlessSoft: a soft process whose utility is already zero
// at its earliest completion is dropped outright.
func TestFTSSDropsWorthlessSoft(t *testing.T) {
	a := model.NewApplication("wz", 1000, 0, 5)
	slow := a.AddProcess(model.Process{Name: "Slow", Kind: model.Soft, BCET: 200, AET: 300, WCET: 400,
		Utility: utility.MustStep([]model.Time{100}, []float64{50})}) // worthless after 100
	good := a.AddProcess(model.Process{Name: "Good", Kind: model.Soft, BCET: 10, AET: 20, WCET: 30,
		Utility: utility.MustStep([]model.Time{500}, []float64{10})})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := FTSS(a)
	if err != nil {
		t.Fatal(err)
	}
	if s.Contains(slow) {
		t.Errorf("worthless process kept: %s", s.Format(a))
	}
	if !s.Contains(good) {
		t.Errorf("valuable process dropped: %s", s.Format(a))
	}
}

// TestFTSSReleaseRespected: releases from hyper-period merging delay starts.
func TestFTSSReleaseRespected(t *testing.T) {
	a := model.NewApplication("rel", 1000, 0, 5)
	a.AddProcess(model.Process{Name: "Late", Kind: model.Hard, BCET: 10, AET: 10, WCET: 10,
		Deadline: 700, Release: 600})
	a.AddProcess(model.Process{Name: "Early", Kind: model.Hard, BCET: 10, AET: 10, WCET: 10, Deadline: 100})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := FTSS(a)
	if err != nil {
		t.Fatal(err)
	}
	c := schedule.WorstCaseCompletions(a, s.Entries, 0, 0)
	li := s.IndexOf(a.IDByName("Late"))
	if c.Start[li] < 600 {
		t.Errorf("Late started at %d before its release 600", c.Start[li])
	}
}

// tieApp is a fixture whose hard processes tie: H2, H4 and H7 share the
// deadline 200, and H3's modified deadline min(180, 200 − 20) equals H5's
// deadline, so the hard tail's EDF walk breaks ties by process ID. Soft
// processes gate H2 and H7, so hard candidates become ready at different
// steps.
func tieApp(t *testing.T) *model.Application {
	t.Helper()
	a := model.NewApplication("ties", 420, 1, 5)
	step := func(hi float64) utility.Function {
		return utility.MustStep([]model.Time{120, 220, 320}, []float64{hi, hi / 2, hi / 4})
	}
	h0 := a.AddProcess(model.Process{Name: "H0", Kind: model.Hard, BCET: 5, AET: 8, WCET: 10, Deadline: 200})
	s1 := a.AddProcess(model.Process{Name: "S1", Kind: model.Soft, BCET: 10, AET: 20, WCET: 30, Utility: step(40)})
	h2 := a.AddProcess(model.Process{Name: "H2", Kind: model.Hard, BCET: 10, AET: 15, WCET: 20, Deadline: 200})
	h3 := a.AddProcess(model.Process{Name: "H3", Kind: model.Hard, BCET: 5, AET: 8, WCET: 10, Deadline: 180})
	h4 := a.AddProcess(model.Process{Name: "H4", Kind: model.Hard, BCET: 10, AET: 15, WCET: 20, Deadline: 200})
	h5 := a.AddProcess(model.Process{Name: "H5", Kind: model.Hard, BCET: 10, AET: 15, WCET: 20, Deadline: 180})
	s6 := a.AddProcess(model.Process{Name: "S6", Kind: model.Soft, BCET: 10, AET: 20, WCET: 30, Utility: step(30)})
	h7 := a.AddProcess(model.Process{Name: "H7", Kind: model.Hard, BCET: 10, AET: 15, WCET: 20, Deadline: 200})
	for _, e := range [][2]model.ProcessID{{h0, s1}, {h0, h3}, {h0, h5}, {h0, s6}, {s1, h2}, {h3, h4}, {s6, h7}} {
		a.MustAddEdge(e[0], e[1])
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// tailFixtures returns the cruise controller, the paper's Fig. 1, Fig. 4
// and Fig. 8 applications, two generated ones and tieApp, each under
// re-execution, restart and checkpoint recovery, on the canonical platform
// and on a two-core biased mapping.
func tailFixtures(t *testing.T) []*model.Application {
	t.Helper()
	bases := []*model.Application{
		apps.CruiseController(), apps.Fig1(), apps.Fig1ReducedPeriod(), apps.Fig8(), tieApp(t),
	}
	for _, g := range []struct {
		n    int
		seed int64
	}{{10, 1}, {20, 2}} {
		app, err := gen.Generate(rand.New(rand.NewSource(g.seed)), gen.Default(g.n))
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, app)
	}
	plat := model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
	var out []*model.Application
	for _, base := range bases {
		for _, rec := range []model.RecoveryModel{
			model.ReExecutionModel(), model.RestartModel(15), model.CheckpointModel(40, 3, 7),
		} {
			app := base
			var err error
			if !rec.IsCanonical() {
				if app, err = app.WithRecovery(rec); err != nil {
					t.Fatal(err)
				}
			}
			mapped, err := app.WithPlatform(plat, model.BiasedMapping(app, plat))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, app, mapped)
		}
	}
	return out
}

// ftssRun is the input of one FTSS run.
type ftssRun struct {
	executed, dropped model.ProcSet
	start             Time
	kRem              int
}

// suffixRuns returns the root run of app and, after every prefix of its
// root schedule, suffix runs starting at the prefix's best-case and
// worst-case completion — the requests FTQS makes, which reach forced
// dropping and recovery stripping far more often than the root does.
func suffixRuns(app *model.Application) []ftssRun {
	none := model.NewProcSet(app.N())
	runs := []ftssRun{{none, none, 0, app.K()}}
	root, err := FTSS(app)
	if err != nil {
		return runs
	}
	best := schedule.BestCaseCompletions(app, root.Entries, 0)
	worst := schedule.WorstCaseCompletions(app, root.Entries, 0, app.K())
	executed := model.NewProcSet(app.N())
	for i, e := range root.Entries {
		executed.Add(e.Proc)
		// A process the root dropped stays dropped once a successor ran.
		dropped := model.NewProcSet(app.N())
		for id := 0; id < app.N(); id++ {
			pid := model.ProcessID(id)
			if executed.Has(pid) {
				continue
			}
			for _, s := range app.Succs(pid) {
				if executed.Has(s) {
					dropped.Add(pid)
				}
			}
		}
		for _, start := range []Time{best.Finish[i], worst.WorstCase[i]} {
			runs = append(runs, ftssRun{slices.Clone(executed), dropped, start, app.K()})
		}
	}
	return runs
}

// TestOwnTailMatchesWalk: the hard tail tailFor derives for a ready hard
// candidate from the shared tail equals hardTail's full EDF walk over the
// unscheduled hard set without the candidate, at every step of every run.
func TestOwnTailMatchesWalk(t *testing.T) {
	checked := 0
	for _, app := range tailFixtures(t) {
		for ri, r := range suffixRuns(app) {
			st := ftssStateAt(app, r.executed, r.dropped, r.start, r.kRem)
			for step := 0; len(st.ready) > 0; step++ {
				st.determineDropping()
				if len(st.ready) == 0 {
					continue
				}
				for _, p := range st.ready {
					if st.kind[p] != model.Hard {
						continue
					}
					got := st.tailFor(p)
					st.scheduled[p] = true // leaves p out of the walk's set
					want := st.hardTail(nil)
					st.scheduled[p] = false
					if !slices.Equal(got, want) {
						t.Fatalf("%s (%s, mapped=%v) run %d step %d, candidate %s:\nderived %v\nwalk    %v",
							app.Name(), app.Recovery(), app.Platform().NCores() > 1, ri, step,
							app.Proc(p).Name, got, want)
					}
					checked++
				}
				if st.placeNext() != nil {
					break
				}
			}
		}
	}
	if checked < 1000 {
		t.Errorf("only %d hard candidates checked", checked)
	}
	t.Logf("%d hard candidate tails checked", checked)
}

// TestFTSSRunAllocs: a warmed FTSS state allocates only the entries slice
// a run returns, which the suffix memo keeps; every per-run table is reset
// in place. Root and suffix runs are measured, on the canonical and a
// mapped platform.
func TestFTSSRunAllocs(t *testing.T) {
	for _, app := range tailFixtures(t) {
		st := newFTSSState(newFTSSTables(app))
		for ri, r := range suffixRuns(app) {
			entries, err := st.run(r.executed, r.dropped, r.start, r.kRem)
			if err != nil || len(entries) == 0 {
				continue // the error path builds its diagnosis
			}
			allocs := testing.AllocsPerRun(10, func() {
				st.run(r.executed, r.dropped, r.start, r.kRem)
			})
			if allocs != 1 {
				t.Fatalf("%s (%s, mapped=%v) run %d: %.1f allocations per run, want 1 (the returned entries)",
					app.Name(), app.Recovery(), app.Platform().NCores() > 1, ri, allocs)
			}
		}
	}
}
