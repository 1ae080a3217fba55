package sim

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ftsched/internal/apps"
	"ftsched/internal/baseline"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/utility"
)

// deterministic scenario helper.
func fixedScenario(app *model.Application, durs map[string]model.Time, faults map[string]int) Scenario {
	sc := Scenario{
		Durations: make([]model.Time, app.N()),
		FaultsAt:  make([]int, app.N()),
	}
	for id := 0; id < app.N(); id++ {
		sc.Durations[id] = app.Proc(model.ProcessID(id)).AET
	}
	for n, d := range durs {
		sc.Durations[app.IDByName(n)] = d
	}
	for n, f := range faults {
		sc.FaultsAt[app.IDByName(n)] = f
		sc.NFaults += f
	}
	return sc
}

func TestRunNoFaultAverageCase(t *testing.T) {
	app := apps.Fig1()
	s, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	tree := StaticTree(app, s)
	sc := fixedScenario(app, nil, nil)
	if err := sc.Validate(app); err != nil {
		t.Fatal(err)
	}
	r := testRun(t, tree, sc)
	// Average case of schedule S2 = P1, P3, P2: utility 60 (paper Fig. 4b2).
	if r.Utility != 60 {
		t.Errorf("utility = %g, want 60", r.Utility)
	}
	if len(r.HardViolations) != 0 {
		t.Errorf("hard violations: %v", r.HardViolations)
	}
	if r.Makespan != 160 {
		t.Errorf("makespan = %d, want 160", r.Makespan)
	}
	if r.Switches != 0 {
		t.Errorf("static schedule cannot switch, got %d", r.Switches)
	}
}

func TestRunFaultRecovery(t *testing.T) {
	app := apps.Fig1()
	s, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	tree := StaticTree(app, s)
	// Fault hits P1; it must re-execute and still meet its deadline 180:
	// 50 + 10 + 50 = 110.
	sc := fixedScenario(app, nil, map[string]int{"P1": 1})
	r := testRun(t, tree, sc)
	if len(r.HardViolations) != 0 {
		t.Fatalf("hard violations: %v", r.HardViolations)
	}
	if r.Recoveries != 1 || r.FaultsConsumed != 1 {
		t.Errorf("recoveries/faults = %d/%d, want 1/1", r.Recoveries, r.FaultsConsumed)
	}
	if got := r.CompletionTimes[app.IDByName("P1")]; got != 110 {
		t.Errorf("P1 completed at %d, want 110", got)
	}
	if r.Outcomes[app.IDByName("P1")] != runtime.Completed {
		t.Error("P1 must complete")
	}
}

func TestRunSoftDroppedOnFault(t *testing.T) {
	app := apps.Fig1()
	s, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	// FTSS gives P3 no recoveries (paper Fig. 4b4); a fault on P3 must
	// abandon it at run time.
	tree := StaticTree(app, s)
	sc := fixedScenario(app, nil, map[string]int{"P3": 1})
	r := testRun(t, tree, sc)
	if r.Outcomes[app.IDByName("P3")] != runtime.AbandonedByFault {
		t.Errorf("P3 outcome = %v, want AbandonedByFault", r.Outcomes[app.IDByName("P3")])
	}
	if len(r.HardViolations) != 0 {
		t.Errorf("hard violations: %v", r.HardViolations)
	}
	// P2 still runs and earns utility; P3 contributes nothing.
	if r.Outcomes[app.IDByName("P2")] != runtime.Completed {
		t.Error("P2 must complete")
	}
	if r.Utility <= 0 {
		t.Errorf("utility = %g, want > 0 from P2", r.Utility)
	}
}

// TestRunQuasiStaticSwitch: with the Fig. 1 tree, an early completion of P1
// (tc = 30) must switch to the P2-first schedule and realise utility 70
// instead of 60 (paper Fig. 4b5).
func TestRunQuasiStaticSwitch(t *testing.T) {
	app := apps.Fig1()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	sc := fixedScenario(app, map[string]model.Time{"P1": 30}, nil)
	r := testRun(t, tree, sc)
	if r.Switches == 0 {
		t.Fatalf("expected a schedule switch; tree:\n%s", tree.Format())
	}
	// P1@30, then P2@80 (40), P3@140 (30): total 70.
	if r.Utility != 70 {
		t.Errorf("utility = %g, want 70", r.Utility)
	}
	// Late completion: no switch, stay with P3-first (utility 60 at AET).
	sc2 := fixedScenario(app, map[string]model.Time{"P1": 50}, nil)
	r2 := testRun(t, tree, sc2)
	if r2.Utility != 60 {
		t.Errorf("late-completion utility = %g, want 60", r2.Utility)
	}
}

// TestQuasiStaticBeatsStaticOnAverage: the headline claim — FTQS's mean
// no-fault utility must exceed FTSS's on the running example.
func TestQuasiStaticBeatsStaticOnAverage(t *testing.T) {
	app := apps.Fig1()
	ftss, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := core.FTQS(app, core.FTQSOptions{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MCConfig{Scenarios: 4000, Faults: 0, Seed: 42}
	sStat, err := MonteCarlo(StaticTree(app, ftss), cfg)
	if err != nil {
		t.Fatal(err)
	}
	qStat, err := MonteCarlo(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if qStat.MeanUtility <= sStat.MeanUtility {
		t.Errorf("FTQS %g must beat FTSS %g", qStat.MeanUtility, sStat.MeanUtility)
	}
	if sStat.HardViolations != 0 || qStat.HardViolations != 0 {
		t.Errorf("hard violations: ftss=%d ftqs=%d", sStat.HardViolations, qStat.HardViolations)
	}
}

// TestFTSSBeatsFTSFOnAverage: the first experiment's claim on the fixtures.
func TestFTSSBeatsFTSFOnAverage(t *testing.T) {
	for _, app := range []*model.Application{apps.Fig1(), apps.Fig8()} {
		ftss, err := core.FTSS(app)
		if err != nil {
			t.Fatal(err)
		}
		ftsf, err := baseline.FTSF(app)
		if err != nil {
			t.Fatal(err)
		}
		cfg := MCConfig{Scenarios: 3000, Faults: 0, Seed: 7}
		a, err := MonteCarlo(StaticTree(app, ftss), cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MonteCarlo(StaticTree(app, ftsf), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.MeanUtility < b.MeanUtility {
			t.Errorf("%s: FTSS %g below FTSF %g", app.Name(), a.MeanUtility, b.MeanUtility)
		}
	}
}

// TestMonteCarloConfigValidation.
func TestMonteCarloConfigValidation(t *testing.T) {
	app := apps.Fig1()
	s, _ := core.FTSS(app)
	tree := StaticTree(app, s)
	if _, err := MonteCarlo(tree, MCConfig{Scenarios: 0}); err == nil {
		t.Error("zero scenarios accepted")
	}
	if _, err := MonteCarlo(tree, MCConfig{Scenarios: 10, Faults: 5}); err == nil {
		t.Error("faults beyond k accepted")
	}
	if _, err := MonteCarlo(tree, MCConfig{Scenarios: 10, Faults: -1}); err == nil {
		t.Error("negative faults accepted")
	}
}

// TestScenarioValidate.
func TestScenarioValidate(t *testing.T) {
	app := apps.Fig1()
	sc := fixedScenario(app, nil, nil)
	if err := sc.Validate(app); err != nil {
		t.Error(err)
	}
	bad := sc
	bad.Durations = bad.Durations[:1]
	if err := bad.Validate(app); err == nil {
		t.Error("short durations accepted")
	}
	bad2 := fixedScenario(app, map[string]model.Time{"P1": 500}, nil)
	if err := bad2.Validate(app); err == nil {
		t.Error("out-of-range duration accepted")
	}
	bad3 := fixedScenario(app, nil, map[string]int{"P1": 1})
	bad3.NFaults = 0
	if err := bad3.Validate(app); err == nil {
		t.Error("inconsistent fault count accepted")
	}
	bad4 := fixedScenario(app, nil, map[string]int{"P1": 1, "P2": 1})
	if err := bad4.Validate(app); err == nil {
		t.Error("faults beyond k accepted")
	}
}

// TestSampleDistribution: sampled durations stay within bounds, fault
// victims come from the candidate pool.
func TestSampleDistribution(t *testing.T) {
	app := apps.Fig8()
	rng := rand.New(rand.NewSource(1))
	cand := []model.ProcessID{app.IDByName("P1"), app.IDByName("P2")}
	for i := 0; i < 200; i++ {
		sc := mustSample(app, rng, 2, cand)
		if err := sc.Validate(app); err != nil {
			t.Fatal(err)
		}
		for id := 0; id < app.N(); id++ {
			if sc.FaultsAt[id] > 0 {
				pid := model.ProcessID(id)
				if pid != cand[0] && pid != cand[1] {
					t.Fatalf("fault victim %d outside candidate pool", id)
				}
			}
		}
	}
	// nil candidates → all processes eligible.
	sc := mustSample(app, rng, 1, nil)
	if sc.NFaults != 1 {
		t.Error("NFaults mismatch")
	}
}

// TestSampleScenarioBounds: out-of-bounds sampling requests return a typed
// *SampleError before touching the RNG.
func TestSampleScenarioBounds(t *testing.T) {
	app := apps.Fig1()
	sample := func(faults int, candidates []model.ProcessID) (Scenario, error) {
		var sc Scenario
		rng := NewRNG(1)
		err := SampleRNGInto(&sc, app, &rng, faults, candidates)
		return sc, err
	}
	var se *SampleError
	if _, err := sample(app.K()+1, nil); !errors.As(err, &se) {
		t.Fatalf("faults>k: err = %v, want *SampleError", err)
	}
	if _, err := sample(-1, nil); !errors.As(err, &se) {
		t.Fatalf("negative faults: err = %v, want *SampleError", err)
	}
	if _, err := sample(1, []model.ProcessID{}); !errors.As(err, &se) {
		t.Fatalf("empty pool: err = %v, want *SampleError", err)
	}
	if se.NFaults != 1 || !se.EmptyPool {
		t.Errorf("SampleError detail = %+v", se)
	}
	if sc, err := sample(1, nil); err != nil || sc.NFaults != 1 {
		t.Errorf("in-bounds sample failed: %v", err)
	}
}

// TestSampleNilPoolMatchesAllProcesses: a nil victim pool draws exactly
// the scenarios the explicit all-process pool draws, draw for draw, and
// a nil-pool call into sized scratch allocates nothing.
func TestSampleNilPoolMatchesAllProcesses(t *testing.T) {
	for _, app := range []*model.Application{apps.Fig1(), apps.Fig8(), apps.CruiseController()} {
		all := make([]model.ProcessID, app.N())
		for id := range all {
			all[id] = model.ProcessID(id)
		}
		var viaNil, viaAll Scenario
		for faults := 0; faults <= app.K(); faults++ {
			for seed := int64(0); seed < 50; seed++ {
				r1, r2 := NewRNG(ScenarioSeed(seed, faults)), NewRNG(ScenarioSeed(seed, faults))
				if err := SampleRNGInto(&viaNil, app, &r1, faults, nil); err != nil {
					t.Fatal(err)
				}
				if err := SampleRNGInto(&viaAll, app, &r2, faults, all); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(viaNil.Durations, viaAll.Durations) || !slices.Equal(viaNil.FaultsAt, viaAll.FaultsAt) || viaNil.NFaults != viaAll.NFaults {
					t.Fatalf("%s faults=%d seed=%d: nil pool drew %+v, all-process pool %+v", app.Name(), faults, seed, viaNil, viaAll)
				}
				if r1.Uint64() != r2.Uint64() {
					t.Fatalf("%s faults=%d seed=%d: the two pools left the RNG streams at different points", app.Name(), faults, seed)
				}
			}
		}
		if raceEnabled {
			continue
		}
		rng := NewRNG(1)
		if allocs := testing.AllocsPerRun(100, func() {
			if err := SampleRNGInto(&viaNil, app, &rng, app.K(), nil); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: nil-pool SampleRNGInto into sized scratch allocates %.1f times per call, want 0", app.Name(), allocs)
		}
	}
}

// randomApp builds a random schedulable-ish application for property tests.
func randomApp(rng *rand.Rand, n, k int) *model.Application {
	mu := model.Time(1 + rng.Intn(15))
	// Generous period ensures FTSS succeeds most of the time; tightness
	// is exercised elsewhere.
	a := model.NewApplication("rand", 1, k, mu)
	var wsum model.Time
	ids := make([]model.ProcessID, n)
	var maxW model.Time
	for i := 0; i < n; i++ {
		w := model.Time(10 + rng.Intn(91))
		b := model.Time(rng.Int63n(int64(w) + 1))
		e := (b + w) / 2
		wsum += w
		if w > maxW {
			maxW = w
		}
		kind := model.Soft
		if rng.Float64() < 0.5 {
			kind = model.Hard
		}
		p := model.Process{Name: procName(i), Kind: kind, BCET: b, AET: e, WCET: w}
		if kind == model.Soft {
			h1 := model.Time(30 + rng.Intn(300))
			h2 := h1 + model.Time(30+rng.Intn(300))
			p.Utility = utility.MustStep([]model.Time{h1, h2}, []float64{20 + 80*rng.Float64(), 5 + 10*rng.Float64()})
		}
		ids[i] = model.ProcessID(i)
		a.AddProcess(p)
	}
	// Random forward edges.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.2 {
				_ = a.AddEdge(ids[i], ids[j])
			}
		}
	}
	// Now assign deadlines and the period from the workload volume so
	// that the app is schedulable even with k faults.
	slack := wsum + model.Time(k)*(maxW+mu) + 10
	rebuilt := model.NewApplication("rand", slack+model.Time(rng.Intn(200)), k, mu)
	var cum model.Time
	for i := 0; i < n; i++ {
		p := a.Proc(ids[i])
		cum += p.WCET
		if p.Kind == model.Hard {
			p.Deadline = cum + model.Time(k)*(maxW+mu) + model.Time(rng.Intn(100))
		}
		rebuilt.AddProcess(p)
	}
	for i := 0; i < n; i++ {
		for _, s := range a.Succs(ids[i]) {
			rebuilt.MustAddEdge(ids[i], s)
		}
	}
	if err := rebuilt.Validate(); err != nil {
		panic(err)
	}
	return rebuilt
}

func procName(i int) string {
	return "P" + string(rune('A'+i%26)) + string(rune('0'+i/26))
}

// TestHardDeadlinesNeverViolatedProperty is the library's central safety
// property: for random applications, any tree synthesised by FTQS keeps
// every hard deadline in every scenario with at most k faults.
func TestHardDeadlinesNeverViolatedProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		k := 1 + rng.Intn(3)
		app := randomApp(rng, n, k)
		tree, err := core.FTQS(app, core.FTQSOptions{M: 8, SweepSamples: 64})
		if err != nil {
			// Unschedulable random instance: nothing to check.
			return true
		}
		for trial := 0; trial < 30; trial++ {
			f := rng.Intn(k + 1)
			sc := mustSample(app, rng, f, nil)
			r := testRun(t, tree, sc)
			if len(r.HardViolations) > 0 {
				t.Logf("seed %d trial %d: violations %v (faults=%d)\n%s",
					seed, trial, r.HardViolations, f, tree.Format())
				return false
			}
			if r.Makespan > app.Period() {
				t.Logf("seed %d trial %d: makespan %d > period %d",
					seed, trial, r.Makespan, app.Period())
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestUtilityNonNegativeAndBounded: realised utility is non-negative and
// never exceeds the sum of the utility maxima.
func TestUtilityBoundsProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := randomApp(rng, 4+rng.Intn(8), 1+rng.Intn(2))
		s, err := core.FTSS(app)
		if err != nil {
			return true
		}
		tree := StaticTree(app, s)
		var ceiling float64
		for _, id := range app.SoftIDs() {
			ceiling += app.UtilityOf(id).Value(0)
		}
		for trial := 0; trial < 20; trial++ {
			sc := mustSample(app, rng, rng.Intn(app.K()+1), nil)
			r := testRun(t, tree, sc)
			if r.Utility < 0 || r.Utility > ceiling+1e-9 {
				t.Logf("seed %d: utility %g outside [0,%g]", seed, r.Utility, ceiling)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestMoreFaultsLowerUtility: mean utility is non-increasing in the number
// of injected faults (paper Fig. 9b trend) on the fixtures.
func TestMoreFaultsLowerUtility(t *testing.T) {
	app := apps.Fig8()
	tree, err := core.FTQS(app, core.FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for f := 0; f <= app.K(); f++ {
		st, err := MonteCarlo(tree, MCConfig{Scenarios: 3000, Faults: f, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if st.HardViolations != 0 {
			t.Fatalf("violations with %d faults", f)
		}
		// Allow a small tolerance: fault victims may be processes whose
		// dropping frees time for others.
		if st.MeanUtility > prev*1.02 {
			t.Errorf("utility rose with more faults: %g -> %g", prev, st.MeanUtility)
		}
		prev = st.MeanUtility
	}
}
