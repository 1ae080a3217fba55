package ftsched_test

import (
	"testing"

	"ftsched"
)

// aetScenario is the no-fault scenario in which every process runs for its
// average execution time, built from the facade types alone.
func aetScenario(app *ftsched.Application) ftsched.Scenario {
	sc := ftsched.Scenario{
		Durations: make([]ftsched.Time, app.N()),
		FaultsAt:  make([]int, app.N()),
	}
	for id := range sc.Durations {
		sc.Durations[id] = app.Proc(ftsched.ProcessID(id)).AET
	}
	return sc
}

// TestPublicAPIEndToEnd walks the whole facade: build, synthesise all three
// algorithms, simulate.
func TestPublicAPIEndToEnd(t *testing.T) {
	app := ftsched.NewApplication("demo", 300, 1, 10)
	p1 := app.AddProcess(ftsched.Process{Name: "P1", Kind: ftsched.Hard,
		BCET: 30, AET: 50, WCET: 70, Deadline: 180})
	p2 := app.AddProcess(ftsched.Process{Name: "P2", Kind: ftsched.Soft,
		BCET: 30, AET: 50, WCET: 70,
		Utility: ftsched.MustStepUtility([]ftsched.Time{90, 200}, []float64{40, 20})})
	p3 := app.AddProcess(ftsched.Process{Name: "P3", Kind: ftsched.Soft,
		BCET: 40, AET: 60, WCET: 80,
		Utility: ftsched.MustStepUtility([]ftsched.Time{110, 150}, []float64{40, 30})})
	app.MustAddEdge(p1, p2)
	app.MustAddEdge(p1, p3)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}

	s, err := ftsched.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	if u := ftsched.ExpectedUtility(app, s); u <= 0 {
		t.Errorf("utility = %g", u)
	}

	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() < 2 {
		t.Errorf("tree size = %d", tree.Size())
	}

	bf, err := ftsched.FTSF(app)
	if err != nil {
		t.Fatal(err)
	}

	cfg := ftsched.MCConfig{Scenarios: 1000, Faults: 1, Seed: 4}
	qs, err := ftsched.MonteCarlo(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := ftsched.MonteCarlo(ftsched.StaticTree(app, bf), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if qs.HardViolations != 0 || bs.HardViolations != 0 {
		t.Error("hard violations in simulation")
	}
	if qs.MeanUtility < bs.MeanUtility {
		t.Errorf("FTQS %g below FTSF %g", qs.MeanUtility, bs.MeanUtility)
	}

	// Single-scenario run: a fault hits the hard process.
	sc := aetScenario(app)
	sc.FaultsAt[p1], sc.NFaults = 1, 1
	r, err := ftsched.Run(tree, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.HardViolations) != 0 || r.Recoveries != 1 {
		t.Errorf("single run: violations %v, re-executions %d", r.HardViolations, r.Recoveries)
	}
}

func TestPublicFixturesAndMerge(t *testing.T) {
	if ftsched.PaperFig1().N() != 3 {
		t.Error("paper fixture broken")
	}
	cc := ftsched.CruiseController()
	if cc.N() != 32 {
		t.Error("cruise controller broken")
	}
	// Multi-rate merge through the facade.
	m, err := ftsched.Merge("m", 1, 10, ftsched.PaperFig1())
	if err != nil {
		t.Fatal(err)
	}
	if m.Period() != 300 {
		t.Error("merge broken")
	}
}
