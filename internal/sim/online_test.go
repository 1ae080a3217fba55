package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
)

func TestOnlineRescheduleNoFault(t *testing.T) {
	app := apps.Fig1()
	root, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	sc := fixedScenario(app, nil, nil)
	r := testReschedule(t, app, root, sc)
	if len(r.HardViolations) != 0 {
		t.Fatalf("violations: %v", r.HardViolations)
	}
	// Average case: same utility as the static schedule (60).
	if r.Utility != 60 {
		t.Errorf("utility = %g, want 60", r.Utility)
	}
	if r.Reschedules != len(root.Entries)-1 {
		t.Errorf("reschedules = %d, want %d", r.Reschedules, len(root.Entries)-1)
	}
	if r.SynthesisTime <= 0 {
		t.Error("synthesis time not recorded")
	}
	if r.FinalNode != -1 {
		t.Error("FinalNode sentinel lost")
	}
}

func TestOnlineRescheduleAdaptsLikeTheTree(t *testing.T) {
	app := apps.Fig1()
	root, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	// P1 finishes at BCET 30: the ideal rescheduler must realise the
	// P2-first ordering worth 70 (like the quasi-static switch).
	sc := fixedScenario(app, map[string]model.Time{"P1": 30}, nil)
	r := testReschedule(t, app, root, sc)
	if r.Utility != 70 {
		t.Errorf("utility = %g, want 70", r.Utility)
	}
}

// TestOnlineRescheduleUpperBound: over many random scenarios the ideal
// online rescheduler must do at least as well as the static schedule, and
// at least as well as the (bounded) quasi-static tree up to noise.
func TestOnlineRescheduleUpperBound(t *testing.T) {
	app := apps.Fig8()
	root, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.FTQS(app, core.FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	var uStatic, uTree, uIdeal float64
	const n = 2000
	static := StaticTree(app, root)
	for i := 0; i < n; i++ {
		sc := mustSample(app, rng, 0, nil)
		uStatic += testRun(t, static, sc).Utility
		uTree += testRun(t, tree, sc).Utility
		ideal := testReschedule(t, app, root, sc)
		if len(ideal.HardViolations) != 0 {
			t.Fatalf("ideal scheduler violated a deadline: %v", ideal.HardViolations)
		}
		uIdeal += ideal.Utility
	}
	uStatic /= n
	uTree /= n
	uIdeal /= n
	if uIdeal < uStatic-0.5 {
		t.Errorf("ideal %g below static %g", uIdeal, uStatic)
	}
	if uIdeal < uTree-1.0 {
		t.Errorf("ideal %g below quasi-static %g", uIdeal, uTree)
	}
	t.Logf("static %.2f <= tree %.2f <= ideal %.2f", uStatic, uTree, uIdeal)
}

// TestOnlineRescheduleSafetyProperty: hard deadlines hold for random
// applications and fault patterns, exactly as for the tree executor.
func TestOnlineRescheduleSafetyProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := randomApp(rng, 4+rng.Intn(10), 1+rng.Intn(3))
		root, err := core.FTSS(app)
		if err != nil {
			return true
		}
		for trial := 0; trial < 15; trial++ {
			sc := mustSample(app, rng, rng.Intn(app.K()+1), nil)
			r := testReschedule(t, app, root, sc)
			if len(r.HardViolations) > 0 {
				t.Logf("seed %d trial %d: violations %v", seed, trial, r.HardViolations)
				return false
			}
			if r.Makespan > app.Period() {
				t.Logf("seed %d trial %d: makespan %d > period %d",
					seed, trial, r.Makespan, app.Period())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// referenceOnlineReschedule is the pre-optimisation implementation of
// RunOnlineReschedule, kept verbatim as a behavioural oracle: it copies the
// remaining entries every cycle and rebuilds the executed/dropped state per
// processed entry. The production version replaced those allocations with
// index consumption and reused buffers; this reference pins down that the
// rewrite changed nothing observable.
func referenceOnlineReschedule(app *model.Application, root *schedule.FSchedule, sc Scenario) RescheduleResult {
	res := RescheduleResult{
		Result: runtime.Result{
			Outcomes:        make([]runtime.ProcessOutcome, app.N()),
			CompletionTimes: make([]model.Time, app.N()),
		},
	}
	faultsLeft := make([]int, app.N())
	copy(faultsLeft, sc.FaultsAt)

	executedIDs := make([]model.ProcessID, 0, app.N())
	droppedIDs := make([]model.ProcessID, 0, app.N())
	kRem := app.K()
	now := model.Time(0)
	remaining := append([]schedule.Entry(nil), root.Entries...)

	for len(remaining) > 0 {
		e := remaining[0]
		remaining = remaining[1:]
		p := app.Proc(e.Proc)
		start := now
		if p.Release > start {
			start = p.Release
		}

		completed := false
		t := start
		for attempt := 0; ; attempt++ {
			t += sc.Durations[e.Proc]
			if faultsLeft[e.Proc] > 0 {
				faultsLeft[e.Proc]--
				res.FaultsConsumed++
				kRem--
				if attempt < e.Recoveries {
					t += app.MuOf(e.Proc)
					res.Recoveries++
					continue
				}
				break
			}
			completed = true
			break
		}
		now = t
		res.Makespan = now

		if completed {
			res.Outcomes[e.Proc] = runtime.Completed
			res.CompletionTimes[e.Proc] = now
			executedIDs = append(executedIDs, e.Proc)
			if p.Kind == model.Hard && now > p.Deadline {
				res.HardViolations = append(res.HardViolations, e.Proc)
			}
		} else {
			res.Outcomes[e.Proc] = runtime.AbandonedByFault
			droppedIDs = append(droppedIDs, e.Proc)
			if p.Kind == model.Hard {
				res.HardViolations = append(res.HardViolations, e.Proc)
			}
		}

		if len(remaining) == 0 {
			break
		}
		if kRem < 0 {
			kRem = 0
		}
		exSet := make(map[model.ProcessID]bool, len(executedIDs))
		for _, id := range executedIDs {
			exSet[id] = true
		}
		drop := append([]model.ProcessID(nil), droppedIDs...)
		for id := 0; id < app.N(); id++ {
			pid := model.ProcessID(id)
			if exSet[pid] || res.Outcomes[id] == runtime.AbandonedByFault {
				continue
			}
			for _, s := range app.Succs(pid) {
				if exSet[s] {
					drop = append(drop, pid)
					break
				}
			}
		}
		suffix, err := core.SuffixFTSS(app, executedIDs, drop, now, kRem)
		res.Reschedules++
		if err == nil && len(suffix) > 0 && schedule.Schedulable(app, suffix, now, kRem) {
			remaining = append([]schedule.Entry(nil), suffix...)
		}
	}
	res.FinalNode = -1

	for _, h := range app.HardIDs() {
		if res.Outcomes[h] != runtime.Completed {
			already := false
			for _, v := range res.HardViolations {
				if v == h {
					already = true
					break
				}
			}
			if !already {
				res.HardViolations = append(res.HardViolations, h)
			}
		}
	}
	res.Utility = runtime.TotalUtility(app, res.Outcomes, res.CompletionTimes)
	return res
}

// TestOnlineRescheduleMatchesReference: the buffer-reusing implementation
// must reproduce the copying reference exactly — every result field except
// the wall-clock SynthesisTime — across the paper fixtures and many random
// fault patterns.
func TestOnlineRescheduleMatchesReference(t *testing.T) {
	for _, app := range []*model.Application{apps.Fig1(), apps.Fig8(), apps.CruiseController()} {
		root, err := core.FTSS(app)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		for i := 0; i < 200; i++ {
			sc := mustSample(app, rng, i%(app.K()+1), nil)
			got := testReschedule(t, app, root, sc)
			want := referenceOnlineReschedule(app, root, sc)
			got.SynthesisTime, want.SynthesisTime = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s scenario %d: results diverge:\ngot  %+v\nwant %+v",
					app.Name(), i, got, want)
			}
		}
	}
}

func TestOnlineRescheduleFaultHandling(t *testing.T) {
	app := apps.Fig1()
	root, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	// Fault on P1: recovered in place; soft processes still run.
	sc := fixedScenario(app, nil, map[string]int{"P1": 1})
	r := testReschedule(t, app, root, sc)
	if len(r.HardViolations) != 0 {
		t.Fatalf("violations: %v", r.HardViolations)
	}
	if r.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", r.Recoveries)
	}
	// Fault on P3 (no recovery budget in the root): abandoned, the
	// rescheduler carries on with P2.
	sc2 := fixedScenario(app, nil, map[string]int{"P3": 1})
	r2 := testReschedule(t, app, root, sc2)
	if r2.Outcomes[app.IDByName("P3")] != runtime.AbandonedByFault {
		t.Error("P3 must be abandoned")
	}
	if r2.Outcomes[app.IDByName("P2")] != runtime.Completed {
		t.Error("P2 must still complete")
	}
}
