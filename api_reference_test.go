package ftsched_test

import (
	"bytes"
	"strings"
	"testing"

	"ftsched"
)

// Compile-time references for the facade's alias types and constants: they
// must stay usable as the declared kinds from outside the module.
var (
	_ ftsched.Kind            = ftsched.Hard
	_ ftsched.UtilityFunction = ftsched.MustStepUtility([]ftsched.Time{1}, []float64{1})
	_ ftsched.UtilityPoint
	_ ftsched.Entry
	_ ftsched.FSchedule
	_ ftsched.MCStats
	_ ftsched.GenConfig
	_ ftsched.TraceEvent
	_ *ftsched.Dispatcher
	_ *ftsched.Metrics
	_ ftsched.Sink              = ftsched.NopSink{}
	_ [3]ftsched.ProcessOutcome = [...]ftsched.ProcessOutcome{ftsched.NotScheduled, ftsched.Completed, ftsched.AbandonedByFault}
	_ ftsched.TraceEventKind
	_ [3]ftsched.RecoveryKind = [...]ftsched.RecoveryKind{ftsched.RecoverReExecution, ftsched.RecoverRestart, ftsched.RecoverCheckpoint}
	_ ftsched.RecoveryModel
	_ *ftsched.RecoveryError
)

// TestAPITreeLifecycle exercises the persistence, tracing and reporting
// surface end to end: synthesise, serialise both formats, reload, verify,
// trace a cycle, render it, and compare against the online-rescheduling
// upper bound.
func TestAPITreeLifecycle(t *testing.T) {
	app := ftsched.PaperFig1()
	s, err := ftsched.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	if rep := ftsched.TimingReport(app, s, app.K()); !strings.Contains(rep, "deadline") {
		t.Errorf("timing report: %q", rep)
	}

	var tree *ftsched.Tree
	tree, err = ftsched.FTQS(app, ftsched.FTQSOptions{M: 6})
	if err != nil {
		t.Fatal(err)
	}
	// The arena invariants the aliases expose: the root Node has no
	// parent; every Arc child is a valid NodeID.
	var root ftsched.Node = tree.Nodes[0]
	if root.Parent != ftsched.NoNode {
		t.Error("root has a parent")
	}
	for _, a := range tree.Arcs {
		var arc ftsched.Arc = a
		var child ftsched.NodeID = arc.Child
		if int(child) <= 0 || int(child) >= len(tree.Nodes) {
			t.Errorf("arc child %d out of range", child)
		}
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

	// Trace one faulty cycle and render it.
	sc, err := ftsched.SampleScenario(app, 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res ftsched.RunResult
	var events []ftsched.TraceEvent
	res, events, err = ftsched.RunTrace(tree, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || len(res.HardViolations) != 0 {
		t.Fatalf("trace: %d events, violations %v", len(events), res.HardViolations)
	}
	var gantt bytes.Buffer
	if err := ftsched.WriteGantt(&gantt, app, events, 0, 60); err != nil {
		t.Fatal(err)
	}
	if gantt.Len() == 0 {
		t.Error("empty Gantt chart")
	}

	// The idealised online rescheduler bounds the tree from above (up to
	// simulation noise) and reports its synthesis cost.
	var rr ftsched.RescheduleResult
	if rr, err = ftsched.RunOnlineReschedule(app, s, sc); err != nil {
		t.Fatal(err)
	}
	if rr.Reschedules == 0 {
		t.Error("online comparator never resynthesised")
	}

	if _, err := ftsched.StepUtility([]ftsched.Time{10}, []float64{5}); err != nil {
		t.Error(err)
	}
}
