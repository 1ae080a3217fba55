package runtime_test

import (
	"math/rand"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
	"ftsched/internal/sim"
)

// lpHP is the two-core test platform: a unit low-power core and a 2x
// high-performance core.
func lpHP(t testing.TB) *model.Platform {
	t.Helper()
	return model.MustNewPlatform(
		model.Core{Name: "lp", Speed: 1, PowerActive: 1, PowerIdle: 0.05},
		model.Core{Name: "hp", Speed: 2, PowerActive: 3, PowerIdle: 0.15},
	)
}

// mappedFixture builds a deterministic three-process application (A and C
// on the LP core, B on the HP core, all recoveries on HP) wrapped as a
// static one-node tree, so every dispatch step is hand-computable.
func mappedFixture(t testing.TB) (*core.Tree, *model.Application) {
	t.Helper()
	a := model.NewApplication("mapped", 1000, 1, 10)
	pa := a.AddProcess(model.Process{Name: "A", Kind: model.Hard, BCET: 40, AET: 40, WCET: 40, Deadline: 900})
	pb := a.AddProcess(model.Process{Name: "B", Kind: model.Hard, BCET: 60, AET: 60, WCET: 60, Deadline: 900})
	pc := a.AddProcess(model.Process{Name: "C", Kind: model.Hard, BCET: 50, AET: 50, WCET: 50, Deadline: 900})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	app, err := a.WithPlatform(lpHP(t), model.Mapping{
		Primary:  []model.CoreID{0, 1, 0},
		Recovery: []model.CoreID{1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule.FSchedule{Entries: []schedule.Entry{
		{Proc: pa, Recoveries: 1}, {Proc: pb, Recoveries: 1}, {Proc: pc, Recoveries: 1},
	}}
	return sim.StaticTree(app, s), app
}

// TestDispatchMappedTimeline: hand-computed mapped dispatch, fault-free.
// A on lp [0,40], B on hp [0,30] (scaled), C on lp [40,90]; the makespan is
// the cross-core maximum, and the per-core energy split follows the busy
// and idle times exactly.
func TestDispatchMappedTimeline(t *testing.T) {
	tree, _ := mappedFixture(t)
	d := runtime.MustNewDispatcher(tree)
	res, err := d.Run(runtime.Scenario{
		Durations: []model.Time{40, 60, 50},
		FaultsAt:  []int{0, 0, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Time{40, 30, 90}
	for i, w := range want {
		if res.CompletionTimes[i] != w {
			t.Errorf("completion[%d] = %d, want %d", i, res.CompletionTimes[i], w)
		}
	}
	if res.Makespan != 90 {
		t.Errorf("makespan = %d, want 90", res.Makespan)
	}
	// busy lp = 90, hp = 30; idle lp = 910, hp = 970.
	if res.CoreBusy[0] != 90 || res.CoreBusy[1] != 30 {
		t.Errorf("core busy = %v, want [90 30]", res.CoreBusy)
	}
	wantActive := 90.0*1 + 30.0*3       // 180
	wantIdle := 910.0*0.05 + 970.0*0.15 // 191
	if res.EnergyActive != wantActive || res.EnergyIdle != wantIdle ||
		res.Energy != wantActive+wantIdle {
		t.Errorf("energy = %v (active %v idle %v), want %v (%v + %v)",
			res.Energy, res.EnergyActive, res.EnergyIdle, wantActive+wantIdle, wantActive, wantIdle)
	}
	wantCore := []float64{90*1 + 910*0.05, 30*3 + 970*0.15}
	for c, w := range wantCore {
		if res.CoreEnergy[c] != w {
			t.Errorf("core %d energy = %v, want %v", c, res.CoreEnergy[c], w)
		}
	}
}

// TestDispatchMappedRecovery: a fault on A re-executes on the HP core:
// 40 (lp attempt) + 10 (µ, charged to hp) + 20 (scaled re-execution) = 70.
// B then queues behind the recovery on hp.
func TestDispatchMappedRecovery(t *testing.T) {
	tree, _ := mappedFixture(t)
	d := runtime.MustNewDispatcher(tree)
	res, err := d.Run(runtime.Scenario{
		Durations: []model.Time{40, 60, 50},
		FaultsAt:  []int{1, 0, 0},
		NFaults:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []model.Time{70, 100, 90}
	for i, w := range want {
		if res.CompletionTimes[i] != w {
			t.Errorf("completion[%d] = %d, want %d", i, res.CompletionTimes[i], w)
		}
	}
	if res.Recoveries != 1 || res.Makespan != 100 {
		t.Errorf("recoveries/makespan = %d/%d, want 1/100", res.Recoveries, res.Makespan)
	}
	// busy lp = 40 + 50 = 90; busy hp = 10 (µ) + 20 (re-exec) + 30 (B) = 60.
	if res.CoreBusy[0] != 90 || res.CoreBusy[1] != 60 {
		t.Errorf("core busy = %v, want [90 60]", res.CoreBusy)
	}
	wantActive := 90.0*1 + 60.0*3       // 270
	wantIdle := 910.0*0.05 + 940.0*0.15 // 186.5
	if res.Energy != wantActive+wantIdle {
		t.Errorf("energy = %v, want %v", res.Energy, wantActive+wantIdle)
	}
}

// TestDispatchMappedAllocFree: the 0 allocs/cycle contract must survive the
// platform refactor on mapped trees too (the acceptance gate).
func TestDispatchMappedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	base := apps.CruiseController()
	plat := lpHP(t)
	app, err := base.WithPlatform(plat, model.BiasedMapping(base, plat))
	if err != nil {
		t.Fatal(err)
	}
	tree := synthesize(t, app, 20)
	for _, tc := range []struct {
		name string
		sink obs.Sink
	}{
		{"plain", nil},
		{"live", obs.NewMetrics()},
	} {
		d := runtime.MustNewDispatcher(tree, runtime.WithSink(tc.sink))
		rng := rand.New(rand.NewSource(29))
		sc := mustSample(app, rng, 2)
		var res runtime.Result
		d.RunInto(&res, sc) // warm up the result buffers and the cycle pool
		allocs := testing.AllocsPerRun(200, func() {
			d.RunInto(&res, sc)
		})
		if allocs != 0 {
			t.Errorf("%s: mapped RunInto allocates %.2f times per cycle, want 0", tc.name, allocs)
		}
	}
}

// TestDispatchMappedHonoursDeadlines: on a fully mapped paper fixture the
// dispatcher must keep every hard deadline across random in-model
// scenarios, and the canonical single-core run of the same scenarios must
// be untouched by the refactor (energy == busy time, one core).
func TestDispatchMappedHonoursDeadlines(t *testing.T) {
	base := apps.Fig8()
	plat := lpHP(t)
	app, err := base.WithPlatform(plat, model.BiasedMapping(base, plat))
	if err != nil {
		t.Fatal(err)
	}
	tree := synthesize(t, app, 16)
	d := runtime.MustNewDispatcher(tree)
	single := runtime.MustNewDispatcher(synthesize(t, base, 16))
	rng := rand.New(rand.NewSource(17))
	var res, sres runtime.Result
	for i := 0; i < 500; i++ {
		sc := mustSample(base, rng, min(1, base.K()))
		if err := d.RunInto(&res, sc); err != nil {
			t.Fatal(err)
		}
		if len(res.HardViolations) != 0 {
			t.Fatalf("scenario %d: hard violations %v on the mapped tree", i, res.HardViolations)
		}
		if err := single.RunInto(&sres, sc); err != nil {
			t.Fatal(err)
		}
		if sres.EnergyIdle != 0 || sres.Energy != float64(sres.CoreBusy[0]) {
			t.Fatalf("scenario %d: canonical energy %v != busy %v", i, sres.Energy, sres.CoreBusy[0])
		}
	}
}
