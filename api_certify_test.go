package ftsched_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ftsched"
)

// TestCertifyFig1: the paper's running example must certify clean in
// exhaustive mode, and the report must be identical for any worker count.
func TestCertifyFig1(t *testing.T) {
	app := ftsched.PaperFig1()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	var rep ftsched.CertifyReport
	rep, err = ftsched.Certify(tree, ftsched.CertifyConfig{})
	if err != nil {
		t.Fatalf("certification failed: %v", err)
	}
	if rep.Mode != "exhaustive" {
		t.Errorf("mode = %q, want exhaustive", rep.Mode)
	}
	if rep.MaxFaults != app.K() {
		t.Errorf("MaxFaults = %d, want k=%d", rep.MaxFaults, app.K())
	}
	if rep.Patterns == 0 || rep.Scenarios == 0 {
		t.Errorf("empty exploration: %+v", rep)
	}
	if rep.WorstSlack <= 0 {
		t.Errorf("certified tree with non-positive worst slack %d", rep.WorstSlack)
	}
	for _, workers := range []int{1, 4} {
		again, err := ftsched.Certify(tree, ftsched.CertifyConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, rep) {
			t.Errorf("workers=%d: report diverged: %+v != %+v", workers, again, rep)
		}
	}
}

// unsafeTree builds a structurally valid but semantically unsafe one-node
// tree: the FTSS schedule with every recovery budget stripped, so a single
// fault abandons the hard process P1 and misses its deadline.
func unsafeTree(t *testing.T, app *ftsched.Application) *ftsched.Tree {
	t.Helper()
	s, err := ftsched.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Entries {
		s.Entries[i].Recoveries = 0
	}
	return ftsched.StaticTree(app, s)
}

// TestCertifyCounterexample: certification of an unsafe tree must return a
// typed CounterexampleError whose scenario replays to the same violation
// through a fresh dispatcher.
func TestCertifyCounterexample(t *testing.T) {
	app := ftsched.PaperFig1()
	tree := unsafeTree(t, app)
	rep, err := ftsched.Certify(tree, ftsched.CertifyConfig{})
	if err == nil {
		t.Fatal("unsafe tree certified")
	}
	var ceErr *ftsched.CounterexampleError
	if !errors.As(err, &ceErr) {
		t.Fatalf("err = %T %v, want *CounterexampleError", err, err)
	}
	ce := ceErr.Counterexample
	p1 := app.IDByName("P1")
	if ce.Proc != p1 {
		t.Errorf("violated process = %d, want P1 (%d)", ce.Proc, p1)
	}
	if ce.Deadline != app.Proc(p1).Deadline {
		t.Errorf("deadline = %d, want %d", ce.Deadline, app.Proc(p1).Deadline)
	}
	if len(ce.Path) == 0 || ce.Path[0] != 0 {
		t.Errorf("path %v does not start at the root", ce.Path)
	}
	if rep.Scenarios == 0 {
		t.Error("report discarded alongside the counterexample")
	}
	// The scenario must reproduce the violation on replay.
	r, err := ftsched.Run(tree, ce.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HardViolations) == 0 {
		t.Error("counterexample scenario replays clean")
	}
}

// TestCertifyContextCancelled: a cancelled context unwinds the engine and
// surfaces ctx.Err().
func TestCertifyContextCancelled(t *testing.T) {
	app := ftsched.PaperFig1()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ftsched.CertifyContext(ctx, tree, ftsched.CertifyConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDispatcherTypedErrors: malformed trees, mis-sized scenarios and bad
// evaluation configurations surface as typed errors through the facade,
// never as panics.
func TestDispatcherTypedErrors(t *testing.T) {
	app := ftsched.PaperFig1()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}

	bad := unsafeTree(t, app)
	bad.Nodes[0].ArcStart, bad.Nodes[0].ArcEnd = 0, 5 // outside the empty arena
	var mte *ftsched.MalformedTreeError
	if _, err := ftsched.NewDispatcher(bad); !errors.As(err, &mte) {
		t.Fatalf("NewDispatcher(bad) = %v, want *MalformedTreeError", err)
	}
	if _, err := ftsched.Certify(bad, ftsched.CertifyConfig{}); !errors.As(err, &mte) {
		t.Fatalf("Certify(bad) = %v, want *MalformedTreeError", err)
	}

	d, err := ftsched.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	var sse *ftsched.ScenarioSizeError
	if _, err := d.Run(ftsched.Scenario{}); !errors.As(err, &sse) {
		t.Fatalf("Run(empty scenario) = %v, want *ScenarioSizeError", err)
	}
	if _, err := ftsched.Run(tree, ftsched.Scenario{}); !errors.As(err, &sse) {
		t.Fatalf("facade Run(empty scenario) = %v, want *ScenarioSizeError", err)
	}

	// Invalid evaluation configurations surface as a typed *MCConfigError
	// carrying the offending field.
	var ce *ftsched.MCConfigError
	if _, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{Scenarios: 100, Workers: -1}); !errors.As(err, &ce) {
		t.Fatalf("MonteCarlo(Workers: -1) = %v, want *MCConfigError", err)
	}
	if ce.Field != "Workers" || ce.Value != -1 {
		t.Errorf("MCConfigError detail = %+v", ce)
	}
}
