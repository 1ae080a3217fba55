package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/schedule"
)

func TestShapeString(t *testing.T) {
	if Layered.String() != "layered" || SeriesParallel.String() != "series-parallel" ||
		Chains.String() != "chains" {
		t.Error("shape strings")
	}
	if Shape(9).String() != "Shape(9)" {
		t.Error("unknown shape string")
	}
}

// TestShapesProduceValidSchedulableApps: every shape yields valid DAGs that
// FTSS can schedule, across sizes.
func TestShapesProduceValidSchedulableApps(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shapes := []Shape{Layered, SeriesParallel, Chains}
		shape := shapes[rng.Intn(len(shapes))]
		n := 5 + rng.Intn(30)
		cfg := Default(n)
		cfg.Shape = shape
		app, err := Generate(rng, cfg)
		if err != nil {
			t.Logf("seed %d shape %v: %v", seed, shape, err)
			return false
		}
		s, err := core.FTSS(app)
		if err != nil {
			t.Logf("seed %d shape %v n=%d: unschedulable", seed, shape, n)
			return false
		}
		if err := schedule.Validate(app, s); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSeriesParallelStructure: the SP shape produces graphs with real fork
// and join structure (processes with multiple successors and multiple
// predecessors).
func TestSeriesParallelStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := Default(30)
	cfg.Shape = SeriesParallel
	app, err := Generate(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forks, joins, edges := 0, 0, 0
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if len(app.Succs(pid)) > 1 {
			forks++
		}
		if len(app.Preds(pid)) > 1 {
			joins++
		}
		edges += len(app.Succs(pid))
	}
	if forks == 0 || joins == 0 {
		t.Errorf("no fork/join structure: forks=%d joins=%d", forks, joins)
	}
	if edges < app.N()-1 {
		t.Errorf("suspiciously few edges: %d", edges)
	}
}

// TestChainsStructure: the chain shape yields bounded in/out degrees.
func TestChainsStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := Default(24)
	cfg.Shape = Chains
	app, err := Generate(rng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sources := 0
	for id := 0; id < app.N(); id++ {
		pid := model.ProcessID(id)
		if len(app.Succs(pid)) > 1 || len(app.Preds(pid)) > 1 {
			t.Fatalf("process %d has degree > 1 in chain shape", id)
		}
		if len(app.Preds(pid)) == 0 {
			sources++
		}
	}
	if sources < 2 {
		t.Error("chains shape should have several sources")
	}
}
