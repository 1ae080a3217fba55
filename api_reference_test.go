package ftsched_test

import (
	"bytes"
	"testing"

	"ftsched"
)

// Compile-time references for the facade's alias types and constants: they
// must stay usable as the declared kinds from outside the module.
var (
	_ ftsched.UtilityFunction = ftsched.MustStepUtility([]ftsched.Time{1}, []float64{1})
	_ ftsched.FSchedule
	_ ftsched.MCStats
	_ ftsched.RunResult
	_ *ftsched.Dispatcher
	_ *ftsched.Metrics
	_ ftsched.Sink = ftsched.NopSink{}
	_ ftsched.RecoveryModel
	_ *ftsched.RecoveryError
)

// TestAPITreeLifecycle exercises the persistence surface end to end:
// synthesise, serialise, reload, verify, and run a cycle on the reloaded
// tree.
func TestAPITreeLifecycle(t *testing.T) {
	app := ftsched.PaperFig1()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 6})
	if err != nil {
		t.Fatal(err)
	}

	// Serialisation round trip.
	var buf bytes.Buffer
	if err := ftsched.WriteTree(&buf, tree); err != nil {
		t.Fatal(err)
	}
	back, err := ftsched.ReadTree(&buf, app)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != tree.Size() {
		t.Errorf("round trip: %d != %d nodes", back.Size(), tree.Size())
	}
	if err := ftsched.VerifyTree(back); err != nil {
		t.Errorf("round trip failed verification: %v", err)
	}

	// The reloaded tree dispatches like the original.
	sc := aetScenario(app)
	want, err := ftsched.Run(tree, sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ftsched.Run(back, sc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Utility != want.Utility || got.Switches != want.Switches {
		t.Errorf("reloaded tree ran differently: utility %g vs %g, switches %d vs %d",
			got.Utility, want.Utility, got.Switches, want.Switches)
	}
	for p, outcome := range got.Outcomes {
		if outcome != ftsched.Completed {
			t.Errorf("process %d: outcome %v in a no-fault average cycle, want completed", p, outcome)
		}
	}
}
