package model

import (
	"testing"

	"ftsched/internal/utility"
)

func TestAccessors(t *testing.T) {
	a, ids := fig1App(t)
	if a.Name() != "fig1" {
		t.Errorf("Name = %q", a.Name())
	}
	if got := a.UtilityOf(ids[0]); got == nil {
		t.Error("UtilityOf(hard) must return a function")
	} else if got.Value(0) != 0 {
		t.Error("hard process utility must be zero")
	}
	if got := a.UtilityOf(ids[1]); got.Value(0) != 40 {
		t.Errorf("UtilityOf(P2)(0) = %g, want 40", got.Value(0))
	}
	if got := a.Preds(ids[1]); len(got) != 1 || got[0] != ids[0] {
		t.Errorf("Preds(P2) = %v", got)
	}
	if got := a.Succs(ids[0]); len(got) != 2 {
		t.Errorf("Succs(P1) = %v", got)
	}
}

func TestAccessorPanics(t *testing.T) {
	a, _ := fig1App(t)
	for name, f := range map[string]func(){
		"Proc":    func() { a.Proc(ProcessID(99)) },
		"Preds":   func() { a.Preds(ProcessID(-1)) },
		"Succs":   func() { a.Succs(ProcessID(99)) },
		"MustAdd": func() { b := NewApplication("x", 10, 0, 1); b.MustAddEdge(0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWithFaults(t *testing.T) {
	a, _ := fig1App(t)
	b, err := a.WithFaults(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if b.K() != 0 || b.Mu() != 5 {
		t.Errorf("WithFaults produced k=%d µ=%d", b.K(), b.Mu())
	}
	if b.N() != a.N() || len(b.Succs(0)) != len(a.Succs(0)) {
		t.Error("WithFaults lost structure")
	}
	// Original untouched.
	if a.K() != 1 {
		t.Error("WithFaults mutated the original")
	}
	// Invalid parameters are rejected through Validate.
	if _, err := a.WithFaults(-1, 5); err == nil {
		t.Error("negative k accepted")
	}
	// Unvalidated receiver panics.
	raw := NewApplication("raw", 10, 0, 1)
	raw.AddProcess(Process{Name: "A", Kind: Hard, BCET: 1, AET: 1, WCET: 1, Deadline: 5})
	defer func() {
		if recover() == nil {
			t.Error("WithFaults on unvalidated application should panic")
		}
	}()
	_, _ = raw.WithFaults(1, 1)
}

func TestUtilityHelpers(t *testing.T) {
	tb := utility.MustTable(utility.Step, utility.Point{T: 10, V: 5})
	if len(tb.Points()) != 1 || tb.Mode() != utility.Step {
		t.Error("Points/Mode accessors broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustTable should panic on invalid input")
		}
	}()
	utility.MustTable(utility.Step)
}
