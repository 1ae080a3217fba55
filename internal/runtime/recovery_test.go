package runtime_test

import (
	"math/rand"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
	"ftsched/internal/sim"
)

// recFixture wraps one hard process (WCET 30, k = 2) under the given
// recovery model as a static one-node tree, so every dispatch step is
// hand-computable.
func recFixture(t testing.TB, m model.RecoveryModel) *core.Tree {
	t.Helper()
	a := model.NewApplication("rec", 1000, 2, 10)
	p1 := a.AddProcess(model.Process{Name: "P1", Kind: model.Hard, BCET: 10, AET: 25, WCET: 30, Deadline: 900})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	app := a
	if !m.IsCanonical() {
		var err error
		app, err = a.WithRecovery(m)
		if err != nil {
			t.Fatal(err)
		}
	}
	s := &schedule.FSchedule{Entries: []schedule.Entry{{Proc: p1, Recoveries: 2}}}
	return sim.StaticTree(app, s)
}

// TestDispatchRecoveryTimeline pins the single-core fault-path arithmetic
// of each recovery model against hand-computed timelines.
func TestDispatchRecoveryTimeline(t *testing.T) {
	cases := []struct {
		name       string
		m          model.RecoveryModel
		dur        model.Time
		faults     int
		completion model.Time
	}{
		// Canonical: 30 + (10+30) + (10+30) = 110.
		{"reexec two faults", model.ReExecutionModel(), 30, 2, 110},
		// Restart latency 7: 30 + (7+30) + (7+30) = 104.
		{"restart two faults", model.RestartModel(7), 30, 2, 104},
		// Checkpoint(10,2,3) at WCET: first attempt 30+2·2 = 34 (checkpoints
		// at 10 and 20, none at completion); each fault rolls back 3 and
		// re-runs the final 10-unit segment: 34 + 13 + 13 = 60.
		{"checkpoint two faults at WCET", model.CheckpointModel(10, 2, 3), 30, 2, 60},
		// Checkpoint at duration 25: attempt 25+2·2 = 29, final segment
		// 25-20 = 5: 29 + (3+5) = 37.
		{"checkpoint one fault mid-segment", model.CheckpointModel(10, 2, 3), 25, 1, 37},
		// Exactly at a segment boundary (20): attempt 20+2 = 22 (one
		// checkpoint at 10), resume is the full segment 10: 22 + 3 + 10 = 35.
		{"checkpoint fault at boundary", model.CheckpointModel(10, 2, 3), 20, 1, 35},
		// No faults: only the checkpoint overheads are paid.
		{"checkpoint fault-free", model.CheckpointModel(10, 2, 3), 30, 0, 34},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := recFixture(t, tc.m)
			d := runtime.MustNewDispatcher(tree)
			res, err := d.Run(runtime.Scenario{
				Durations: []model.Time{tc.dur},
				FaultsAt:  []int{tc.faults},
				NFaults:   tc.faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Outcomes[0] != runtime.Completed {
				t.Fatalf("outcome = %v, want Completed", res.Outcomes[0])
			}
			if res.CompletionTimes[0] != tc.completion {
				t.Errorf("completion = %d, want %d", res.CompletionTimes[0], tc.completion)
			}
			if res.Recoveries != tc.faults {
				t.Errorf("recoveries = %d, want %d", res.Recoveries, tc.faults)
			}
			// Single core: busy time equals the completion time, and with
			// active power 1 / idle power 0 so does the energy.
			if res.CoreBusy[0] != tc.completion || res.Energy != float64(tc.completion) {
				t.Errorf("busy/energy = %d/%v, want %d", res.CoreBusy[0], res.Energy, tc.completion)
			}
		})
	}
}

// TestDispatchRecoveryMapped: on a two-core platform a checkpoint rollback
// stays on the primary core (checkpoint state is local), while restart and
// re-execution hop to the recovery core.
func TestDispatchRecoveryMapped(t *testing.T) {
	mk := func(m model.RecoveryModel) *core.Tree {
		a := model.NewApplication("mapped-rec", 1000, 1, 10)
		p1 := a.AddProcess(model.Process{Name: "A", Kind: model.Hard, BCET: 40, AET: 40, WCET: 40, Deadline: 900})
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		app, err := a.WithPlatform(lpHP(t), model.Mapping{
			Primary:  []model.CoreID{0},
			Recovery: []model.CoreID{1},
		})
		if err != nil {
			t.Fatal(err)
		}
		app, err = app.WithRecovery(m)
		if err != nil {
			t.Fatal(err)
		}
		s := &schedule.FSchedule{Entries: []schedule.Entry{{Proc: p1, Recoveries: 1}}}
		return sim.StaticTree(app, s)
	}
	sc := runtime.Scenario{Durations: []model.Time{40}, FaultsAt: []int{1}, NFaults: 1}

	// Restart(6): lp attempt 40, latency 6 on hp, scaled re-run 20 on hp.
	d := runtime.MustNewDispatcher(mk(model.RestartModel(6)))
	res, err := d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTimes[0] != 66 {
		t.Errorf("restart completion = %d, want 40+6+20", res.CompletionTimes[0])
	}
	if res.CoreBusy[0] != 40 || res.CoreBusy[1] != 26 {
		t.Errorf("restart core busy = %v, want [40 26]", res.CoreBusy)
	}

	// Checkpoint(15,1,4): attempt 40+2·1 = 42 (checkpoints at 15 and 30),
	// rollback 4 and the final 10-unit segment re-run on the PRIMARY core:
	// 42 + 4 + 10 = 56, all of it lp busy time.
	d = runtime.MustNewDispatcher(mk(model.CheckpointModel(15, 1, 4)))
	res, err = d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionTimes[0] != 56 {
		t.Errorf("checkpoint completion = %d, want 42+4+10", res.CompletionTimes[0])
	}
	if res.CoreBusy[0] != 56 || res.CoreBusy[1] != 0 {
		t.Errorf("checkpoint core busy = %v, want [56 0] (rollback stays on the primary)", res.CoreBusy)
	}
}

// TestDispatchRecoveryOverrunRollback: an injected WCET overrun recurs in
// full on every re-execution, but a checkpoint re-run repeats only its
// final segment, so at most that much of the excess is charged again.
func TestDispatchRecoveryOverrunRollback(t *testing.T) {
	mk := func(m model.RecoveryModel) *runtime.Dispatcher {
		tree := recFixture(t, m)
		return runtime.MustNewDispatcher(tree,
			runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: runtime.PolicyBestEffort}))
	}
	// Duration 50 = WCET 30 + 20 excess, one fault.
	sc := runtime.Scenario{Durations: []model.Time{50}, FaultsAt: []int{1}, NFaults: 1}

	// Re-execution repeats the whole overrun: 20 + 20 = 40.
	res, err := mk(model.ReExecutionModel()).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverrunTotal != 40 {
		t.Errorf("reexec OverrunTotal = %d, want 40", res.OverrunTotal)
	}
	// Checkpoint(10,2,3): resume re-runs the final segment of the sampled
	// 50-unit duration (50-40 = 10), so only min(20, 10) of the excess
	// recurs: 20 + 10 = 30.
	res, err = mk(model.CheckpointModel(10, 2, 3)).Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverrunTotal != 30 {
		t.Errorf("checkpoint OverrunTotal = %d, want 30", res.OverrunTotal)
	}
	// A negative sampled duration has no excess, and its negative resume
	// segment must not be charged as a negative overrun.
	neg := runtime.Scenario{Durations: []model.Time{-5}, FaultsAt: []int{1}, NFaults: 1}
	res, err = mk(model.CheckpointModel(10, 2, 3)).Run(neg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverrunTotal != 0 {
		t.Errorf("checkpoint OverrunTotal for duration -5 = %d, want 0", res.OverrunTotal)
	}
}

// TestDispatchRecoveryAllocFree: the 0 allocs/cycle contract must hold
// under every recovery model (the acceptance gate).
func TestDispatchRecoveryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	base := apps.CruiseController()
	for _, tc := range []struct {
		name string
		m    model.RecoveryModel
	}{
		{"reexec", model.ReExecutionModel()},
		{"restart", model.RestartModel(base.Mu())},
		{"checkpoint", model.CheckpointModel(base.Mu()*4, base.Mu()/2, base.Mu())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app := base
			if !tc.m.IsCanonical() {
				var err error
				app, err = base.WithRecovery(tc.m)
				if err != nil {
					t.Fatal(err)
				}
			}
			tree := synthesize(t, app, 20)
			d := runtime.MustNewDispatcher(tree)
			rng := rand.New(rand.NewSource(31))
			sc := mustSample(app, rng, 2)
			var res runtime.Result
			d.RunInto(&res, sc) // warm up the result buffers and the cycle pool
			allocs := testing.AllocsPerRun(200, func() {
				d.RunInto(&res, sc)
			})
			if allocs != 0 {
				t.Errorf("RunInto allocates %.2f times per cycle under %s, want 0", allocs, tc.name)
			}
		})
	}
}

// BenchmarkDispatchRecovery measures the per-cycle dispatch cost under each
// recovery model (CI uploads this block into BENCH_dispatch.json).
func BenchmarkDispatchRecovery(b *testing.B) {
	base := apps.CruiseController()
	for _, tc := range []struct {
		name string
		m    model.RecoveryModel
	}{
		{"reexec", model.ReExecutionModel()},
		{"restart", model.RestartModel(base.Mu())},
		{"checkpoint", model.CheckpointModel(base.Mu()*4, base.Mu()/2, base.Mu())},
	} {
		b.Run(tc.name, func(b *testing.B) {
			app := base
			if !tc.m.IsCanonical() {
				var err error
				app, err = base.WithRecovery(tc.m)
				if err != nil {
					b.Fatal(err)
				}
			}
			tree := synthesize(b, app, 20)
			d := runtime.MustNewDispatcher(tree)
			rng := rand.New(rand.NewSource(31))
			sc := mustSample(app, rng, 2)
			var res runtime.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.RunInto(&res, sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWCETOverrunDetectedAtFirstCompletion: a WCETOverrun is detected at
// the completion of the affected entry's first attempt as executed, so At
// is that attempt's end after clamping, core-speed scaling and checkpoint
// overheads. One hard process (WCET 30) runs a 50-unit duration, no fault,
// under best-effort.
func TestWCETOverrunDetectedAtFirstCompletion(t *testing.T) {
	cases := []struct {
		name  string
		m     model.RecoveryModel
		hp    bool // primary on the speed-2 core of lpHP
		clamp bool
		at    model.Time
	}{
		{"reexec", model.ReExecutionModel(), false, false, 50},
		{"restart", model.RestartModel(7), false, false, 50},
		// 50 + (50-1)/10·2 checkpoint overheads = 58.
		{"checkpoint", model.CheckpointModel(10, 2, 3), false, false, 58},
		// ceil(50/2) on the speed-2 core.
		{"speed-2", model.ReExecutionModel(), true, false, 25},
		// The watchdog cuts the attempt at WCET.
		{"clamp", model.ReExecutionModel(), false, true, 30},
		// Clamped to 30, plus (30-1)/10·2 overheads = 34.
		{"checkpoint clamp", model.CheckpointModel(10, 2, 3), false, true, 34},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree := recFixture(t, tc.m)
			if tc.hp {
				app, err := tree.App.WithPlatform(lpHP(t), model.Mapping{
					Primary:  []model.CoreID{1},
					Recovery: []model.CoreID{1},
				})
				if err != nil {
					t.Fatal(err)
				}
				tree = sim.StaticTree(app, tree.Nodes[0].Schedule)
			}
			d := runtime.MustNewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{
				Policy: runtime.PolicyBestEffort, Clamp: tc.clamp,
			}))
			res, err := d.Run(runtime.Scenario{Durations: []model.Time{50}, FaultsAt: []int{0}})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 1 || res.Violations[0].Kind != runtime.WCETOverrun {
				t.Fatalf("violations %+v, want one WCETOverrun", res.Violations)
			}
			if ev := res.Violations[0]; ev.At != tc.at || ev.Magnitude != 20 {
				t.Errorf("event at %d magnitude %d, want at %d magnitude 20", ev.At, ev.Magnitude, tc.at)
			}
			if res.CompletionTimes[0] != tc.at {
				t.Errorf("completion %d, want %d (no fault: detection is at completion)", res.CompletionTimes[0], tc.at)
			}
		})
	}
}
