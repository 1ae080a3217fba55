package sim

import (
	"math/rand"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
)

func TestTrimNeverReducesMeasuredUtility(t *testing.T) {
	app := apps.CruiseController()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 39})
	if err != nil {
		t.Fatal(err)
	}
	// Independent evaluation seeds (different from the trim seed) so the
	// check is out-of-sample.
	evalCfg := func(f int) MCConfig { return MCConfig{Scenarios: 2000, Faults: f, Seed: 77} }
	var before [3]float64
	for f := 0; f <= 2; f++ {
		st, err := MonteCarlo(tree, evalCfg(f))
		if err != nil {
			t.Fatal(err)
		}
		before[f] = st.MeanUtility
	}
	removed, err := Trim(tree, TrimConfig{Scenarios: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("removed %d arcs, %d nodes remain", removed, tree.Size())
	if err := core.VerifyTree(tree); err != nil {
		t.Fatalf("trimmed tree fails verification: %v", err)
	}
	for f := 0; f <= 2; f++ {
		st, err := MonteCarlo(tree, evalCfg(f))
		if err != nil {
			t.Fatal(err)
		}
		if st.HardViolations != 0 {
			t.Fatalf("violations after trim (f=%d)", f)
		}
		// Out-of-sample: allow a small tolerance.
		if st.MeanUtility < before[f]*0.99 {
			t.Errorf("f=%d: utility dropped from %g to %g after trim", f, before[f], st.MeanUtility)
		}
	}
}

func TestTrimConfigValidation(t *testing.T) {
	app := apps.Fig1()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Trim(tree, TrimConfig{}); err == nil {
		t.Error("zero scenarios accepted")
	}
	if _, err := Trim(tree, TrimConfig{Scenarios: 10, Faults: []int{9}}); err == nil {
		t.Error("fault count beyond k accepted")
	}
}

func TestTrimCompactsUnreachableNodes(t *testing.T) {
	app := apps.Fig8()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 20})
	if err != nil {
		t.Fatal(err)
	}
	sizeBefore := tree.Size()
	removed, err := Trim(tree, TrimConfig{Scenarios: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if removed > 0 && tree.Size() > sizeBefore {
		t.Error("tree grew after trimming")
	}
	// Arc ranges dense after renumbering, children in range.
	prevEnd := int32(0)
	for i := range tree.Nodes {
		n := &tree.Nodes[i]
		if n.ArcStart != prevEnd || n.ArcEnd < n.ArcStart {
			t.Fatalf("node %d arc range [%d,%d) not dense after %d", i, n.ArcStart, n.ArcEnd, prevEnd)
		}
		prevEnd = n.ArcEnd
		for _, a := range tree.NodeArcs(core.NodeID(i)) {
			if a.Child < 0 || int(a.Child) >= len(tree.Nodes) {
				t.Fatalf("node %d arc child S%d out of range after compaction", i, a.Child)
			}
		}
	}
	if int(prevEnd) != len(tree.Arcs) {
		t.Fatalf("arc arena has %d entries, node ranges cover %d", len(tree.Arcs), prevEnd)
	}
	// The tree still runs.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		r := testRun(t, tree, mustSample(app, rng, i%(app.K()+1), nil))
		if len(r.HardViolations) != 0 {
			t.Fatal("violation after trim")
		}
	}
}

// TestTrimIdempotent: a second trim pass with the same configuration finds
// nothing left to remove.
func TestTrimIdempotent(t *testing.T) {
	app := apps.Fig8()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrimConfig{Scenarios: 300, Seed: 4}
	if _, err := Trim(tree, cfg); err != nil {
		t.Fatal(err)
	}
	again, err := Trim(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("second trim removed %d arcs; expected 0", again)
	}
}
