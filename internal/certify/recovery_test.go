package certify

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
)

// recoveryStudy pairs each fixture with per-app restart and checkpoint
// models that keep it schedulable (restart latency µ matches the canonical
// worst case exactly; checkpoint spacing covers half the longest WCET).
func recoveryStudy(t testing.TB, app *model.Application) []*model.Application {
	t.Helper()
	var maxW model.Time
	for _, id := range app.Topo() {
		if w := app.Proc(id).WCET; w > maxW {
			maxW = w
		}
	}
	spacing := maxW/2 + 1
	overhead := app.Mu() / 2
	if overhead >= spacing {
		overhead = spacing - 1
	}
	out := []*model.Application{app}
	for _, m := range []model.RecoveryModel{
		model.RestartModel(app.Mu()),
		model.CheckpointModel(spacing, overhead, app.Mu()),
	} {
		withRec, err := app.WithRecovery(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, withRec)
	}
	return out
}

// TestCertifyRecoveryModelsClean: Fig. 1 and Fig. 8 trees synthesised under
// each recovery model certify counterexample-free at the full fault bound,
// and the reports stay bit-identical across worker counts.
func TestCertifyRecoveryModelsClean(t *testing.T) {
	for _, base := range []struct {
		app *model.Application
		m   int
	}{
		{apps.Fig1(), 12},
		{apps.Fig8(), 16},
	} {
		for _, app := range recoveryStudy(t, base.app) {
			tree := synthesize(t, app, base.m)
			var want Report
			for i, workers := range []int{1, 4} {
				rep, err := Certify(tree, Config{Workers: workers})
				if err != nil {
					t.Fatalf("%s under %v: %v", app.Name(), app.Recovery(), err)
				}
				if rep.Scenarios == 0 || rep.Patterns == 0 {
					t.Fatalf("%s under %v: empty exploration %+v", app.Name(), app.Recovery(), rep)
				}
				if rep.WorstSlack < 0 {
					t.Errorf("%s under %v: negative worst slack %d", app.Name(), app.Recovery(), rep.WorstSlack)
				}
				if i == 0 {
					want = rep
					continue
				}
				if !reflect.DeepEqual(rep, want) {
					t.Errorf("%s under %v: report diverged across workers:\n%+v\n%+v",
						app.Name(), app.Recovery(), rep, want)
				}
			}
		}
	}
}

// TestCertifyCheckpointUnsafe: the probe must CATCH a checkpoint model whose
// rollback makes the tree unsafe — the counterexample replays to the same
// violation (the "replayable CE" half of the contract).
func TestCertifyCheckpointUnsafe(t *testing.T) {
	// One hard process, WCET 30, k=2, deadline 60: checkpoint(10,2,3) is
	// schedulable exactly at the deadline (34 + 2×13 = 60), so rollback 4
	// overshoots by 2 — but only on the two-fault path.
	a := model.NewApplication("cp-unsafe", 1000, 2, 5)
	p1 := a.AddProcess(model.Process{Name: "P1", Kind: model.Hard, BCET: 10, AET: 25, WCET: 30, Deadline: 60})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	app, err := a.WithRecovery(model.CheckpointModel(10, 2, 4))
	if err != nil {
		t.Fatal(err)
	}
	tree := &core.Tree{
		App: app,
		Nodes: []core.Node{{
			Schedule:       &schedule.FSchedule{Entries: []schedule.Entry{{Proc: p1, Recoveries: 2}}},
			Parent:         core.NoNode,
			DroppedOnFault: model.NoProcess,
		}},
	}
	rep, err := Certify(tree, Config{})
	if err == nil {
		t.Fatalf("unsafe checkpoint tree certified clean: %+v", rep)
	}
	var ceErr *CounterexampleError
	if !errors.As(err, &ceErr) {
		t.Fatalf("certification failed without a counterexample: %v", err)
	}
	ce := &ceErr.Counterexample
	if ce.Scenario.NFaults != 2 {
		t.Errorf("counterexample uses %d faults, want the 2-fault path", ce.Scenario.NFaults)
	}
	// The counterexample replays to the same hard violation.
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(ce.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HardViolations) == 0 || res.HardViolations[0] != ce.Proc {
		t.Errorf("replay violations %v, want leading %d", res.HardViolations, ce.Proc)
	}
}

// TestCheckpointCornerSet: the corner generator must place probes on both
// sides of every checkpoint-spacing multiple strictly inside (BCET, WCET) —
// the sawtooth in the fault-path resume time is invisible to pure
// bisection.
func TestCheckpointCornerSet(t *testing.T) {
	a := model.NewApplication("corners", 1000, 1, 5)
	a.AddProcess(model.Process{Name: "P1", Kind: model.Hard, BCET: 12, AET: 30, WCET: 45, Deadline: 900})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	app, err := a.WithRecovery(model.CheckpointModel(10, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	tree := &core.Tree{
		App: app,
		Nodes: []core.Node{{
			Schedule:       &schedule.FSchedule{Entries: []schedule.Entry{{Proc: 0, Recoveries: 1}}},
			Parent:         core.NoNode,
			DroppedOnFault: model.NoProcess,
		}},
	}
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := cornerSets(context.Background(), d, app, boundsOf(app), defaultMaxBoundaries)
	if err != nil {
		t.Fatal(err)
	}
	got := sets[0]
	// Spacing multiples inside (12, 45): 20, 30, 40 — each contributes both
	// b and b+1.
	for _, want := range []model.Time{20, 21, 30, 31, 40, 41} {
		i := sort.Search(len(got), func(i int) bool { return got[i] >= want })
		if i >= len(got) || got[i] != want {
			t.Errorf("corner set %v lacks the checkpoint boundary %d", got, want)
		}
	}
	// Still sorted, deduplicated and inside [BCET, WCET].
	for i := range got {
		if i > 0 && got[i] <= got[i-1] {
			t.Fatalf("corner set not strictly increasing: %v", got)
		}
		if got[i] < 12 || got[i] > 45 {
			t.Fatalf("corner %d outside [BCET, WCET]: %v", got[i], got)
		}
	}
}
