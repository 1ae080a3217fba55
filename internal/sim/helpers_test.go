package sim

import (
	"math/rand"
	"testing"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
)

// testRun executes one scenario through a freshly compiled dispatcher,
// failing the test on the typed errors compilation or dispatch can return
// (impossible for the well-formed trees and correctly sized scenarios
// these tests build).
func testRun(t testing.TB, tree *core.Tree, sc Scenario) runtime.Result {
	t.Helper()
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// testReschedule is RunOnlineReschedule failing the test on its error.
func testReschedule(t testing.TB, app *model.Application, root *schedule.FSchedule, sc Scenario) RescheduleResult {
	t.Helper()
	r, err := RunOnlineReschedule(app, root, sc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mustSample draws one scenario with SampleRNGInto from a stream seeded by
// rng, so a test's *rand.Rand still drives everything it randomises. It
// panics on a *SampleError, which in-bounds requests cannot produce.
func mustSample(app *model.Application, rng *rand.Rand, nFaults int, candidates []model.ProcessID) Scenario {
	var sc Scenario
	r := NewRNG(rng.Int63())
	if err := SampleRNGInto(&sc, app, &r, nFaults, candidates); err != nil {
		panic(err)
	}
	return sc
}
