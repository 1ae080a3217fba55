package runtime_test

import (
	"math/rand"
	"sync"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// mustSample draws one scenario (victims from all processes) with
// sim.SampleRNGInto from a stream seeded by rng, so a test's *rand.Rand
// still drives everything it randomises. It panics on a *sim.SampleError,
// which in-bounds requests cannot produce.
func mustSample(app *model.Application, rng *rand.Rand, nFaults int) runtime.Scenario {
	var sc runtime.Scenario
	r := sim.NewRNG(rng.Int63())
	if err := sim.SampleRNGInto(&sc, app, &r, nFaults, nil); err != nil {
		panic(err)
	}
	return sc
}

// synthesize builds a quasi-static tree or fails the test.
func synthesize(t testing.TB, app *model.Application, m int) *core.Tree {
	t.Helper()
	tree, err := core.FTQS(app, core.FTQSOptions{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// probeTimes collects the interesting completion times of a node: every
// guard boundary and its neighbours, plus a spread of random points.
func probeTimes(tree *core.Tree, id core.NodeID, rng *rand.Rand) []model.Time {
	period := tree.App.Period()
	times := []model.Time{0, period, period + 1}
	for _, a := range tree.NodeArcs(id) {
		times = append(times, a.Lo-1, a.Lo, a.Lo+1, a.Hi-1, a.Hi, a.Hi+1)
	}
	for i := 0; i < 16; i++ {
		times = append(times, model.Time(rng.Int63n(int64(period)+1)))
	}
	return times
}

// TestDispatcherMatchesTreeNext: the compiled disjoint-segment lookup must
// resolve every (node, position, completion time, outcome) probe to the
// same child as the interpretive core.Tree.Next — including guard
// boundaries, overlap regions decided by gain, and times no guard covers.
func TestDispatcherMatchesTreeNext(t *testing.T) {
	outcomes := []core.EntryOutcome{core.CompletedOK, core.CompletedRecovered, core.DroppedByFault}
	for _, tc := range []struct {
		app *model.Application
		m   int
	}{
		{apps.Fig1(), 8},
		{apps.Fig8(), 20},
		{apps.CruiseController(), 24},
	} {
		tree := synthesize(t, tc.app, tc.m)
		d := runtime.MustNewDispatcher(tree)
		rng := rand.New(rand.NewSource(3))
		for id := range tree.Nodes {
			nid := core.NodeID(id)
			n := &tree.Nodes[id]
			for pos := 0; pos < len(n.Schedule.Entries); pos++ {
				for _, at := range probeTimes(tree, nid, rng) {
					for _, out := range outcomes {
						want := tree.Next(nid, pos, at, out)
						got := d.Next(nid, pos, at, out)
						if got != want {
							t.Fatalf("%s: node %d pos %d t=%d outcome %d: dispatcher -> %d, tree -> %d",
								tc.app.Name(), id, pos, at, out, got, want)
						}
					}
				}
			}
		}
	}
}

// TestDispatcherTrimmedGuards: arcs disabled by trimming (Lo > Hi) must be
// invisible to the compiled lookup, exactly as they are to Tree.Next.
func TestDispatcherTrimmedGuards(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16)
	// Disable every other arc the way sim.Trim does.
	for i := range tree.Arcs {
		if i%2 == 1 {
			tree.Arcs[i].Lo, tree.Arcs[i].Hi = 1, 0
		}
	}
	d := runtime.MustNewDispatcher(tree)
	rng := rand.New(rand.NewSource(5))
	for id := range tree.Nodes {
		nid := core.NodeID(id)
		n := &tree.Nodes[id]
		for pos := 0; pos < len(n.Schedule.Entries); pos++ {
			for _, at := range probeTimes(tree, nid, rng) {
				for _, out := range []core.EntryOutcome{core.CompletedOK, core.CompletedRecovered, core.DroppedByFault} {
					if got, want := d.Next(nid, pos, at, out), tree.Next(nid, pos, at, out); got != want {
						t.Fatalf("node %d pos %d t=%d: dispatcher -> %d, tree -> %d", id, pos, at, got, want)
					}
				}
			}
		}
	}
}

// mustRun executes a scenario, failing the test on the (impossible for
// well-sized scenarios) typed errors.
func mustRun(t testing.TB, d *runtime.Dispatcher, sc runtime.Scenario) runtime.Result {
	t.Helper()
	res, err := d.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// resultsEqual compares results treating nil and empty slices alike (Run
// returns nil slices where a reused RunInto result holds empty ones).
func resultsEqual(a, b *runtime.Result) bool {
	if a.Utility != b.Utility || a.Makespan != b.Makespan ||
		a.Switches != b.Switches || a.FinalNode != b.FinalNode ||
		a.FaultsConsumed != b.FaultsConsumed || a.Recoveries != b.Recoveries {
		return false
	}
	if len(a.Outcomes) != len(b.Outcomes) || len(a.HardViolations) != len(b.HardViolations) {
		return false
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			return false
		}
		if a.Outcomes[i] == runtime.Completed && a.CompletionTimes[i] != b.CompletionTimes[i] {
			return false
		}
	}
	for i := range a.HardViolations {
		if a.HardViolations[i] != b.HardViolations[i] {
			return false
		}
	}
	return true
}

// TestRunIntoMatchesRun: reusing one Result across scenarios must leave no
// residue — every call reports exactly what a fresh Run would.
func TestRunIntoMatchesRun(t *testing.T) {
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	d := runtime.MustNewDispatcher(tree)
	rng := rand.New(rand.NewSource(11))
	var reused runtime.Result
	for i := 0; i < 500; i++ {
		sc := mustSample(app, rng, i%(app.K()+1))
		d.RunInto(&reused, sc)
		fresh := mustRun(t, d, sc)
		if !resultsEqual(&reused, &fresh) {
			t.Fatalf("scenario %d: RunInto %+v != Run %+v", i, reused, fresh)
		}
	}
}

// TestRunTraceMatchesRun: tracing must not perturb the simulation, and the
// event stream must be time-ordered.
func TestRunTraceMatchesRun(t *testing.T) {
	app := apps.Fig8()
	tree := synthesize(t, app, 16)
	d := runtime.MustNewDispatcher(tree)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 100; i++ {
		sc := mustSample(app, rng, i%(app.K()+1))
		plain := mustRun(t, d, sc)
		traced, events, err := d.RunTrace(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(&plain, &traced) {
			t.Fatalf("scenario %d: tracing changed the result", i)
		}
		for j := 1; j < len(events); j++ {
			if events[j].At < events[j-1].At {
				t.Fatalf("scenario %d: events out of order at %d: %+v after %+v",
					i, j, events[j], events[j-1])
			}
		}
	}
}

// TestDispatcherConcurrent: one Dispatcher shared by many goroutines (the
// Monte-Carlo pattern) must stay correct — run with -race.
func TestDispatcherConcurrent(t *testing.T) {
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	d := runtime.MustNewDispatcher(tree)

	const workers, perWorker = 8, 50
	scenarios := make([]sim.Scenario, workers*perWorker)
	want := make([]runtime.Result, len(scenarios))
	rng := rand.New(rand.NewSource(23))
	for i := range scenarios {
		scenarios[i] = mustSample(app, rng, i%(app.K()+1))
		want[i] = mustRun(t, d, scenarios[i])
	}

	var wg sync.WaitGroup
	errs := make(chan int, len(scenarios))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res runtime.Result
			for i := w; i < len(scenarios); i += workers {
				d.RunInto(&res, scenarios[i])
				if !resultsEqual(&res, &want[i]) {
					errs <- i
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for i := range errs {
		t.Errorf("scenario %d diverged under concurrency", i)
	}
}

// TestRunIntoAllocFree: the acceptance criterion of the refactor — the
// steady-state dispatch loop must not allocate at all.
func TestRunIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	d := runtime.MustNewDispatcher(tree)
	rng := rand.New(rand.NewSource(29))
	sc := mustSample(app, rng, 2)
	var res runtime.Result
	d.RunInto(&res, sc) // warm up the result buffers and the cycle pool
	allocs := testing.AllocsPerRun(200, func() {
		d.RunInto(&res, sc)
	})
	if allocs != 0 {
		t.Errorf("RunInto allocates %.2f times per cycle, want 0", allocs)
	}
}

// TestRunIntoAllocFreeWithSinks: instrumentation must not cost allocations
// either — neither the disabled path (nil / NopSink) nor a live Metrics
// collector may allocate per cycle.
func TestRunIntoAllocFreeWithSinks(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	rng := rand.New(rand.NewSource(29))
	sc := mustSample(app, rng, 2)
	for _, tc := range []struct {
		name string
		sink obs.Sink
	}{
		{"nop", obs.NopSink{}},
		{"live", obs.NewMetrics()},
	} {
		d := runtime.MustNewDispatcher(tree, runtime.WithSink(tc.sink))
		var res runtime.Result
		d.RunInto(&res, sc)
		allocs := testing.AllocsPerRun(200, func() {
			d.RunInto(&res, sc)
		})
		if allocs != 0 {
			t.Errorf("%s sink: RunInto allocates %.2f times per cycle, want 0", tc.name, allocs)
		}
	}
}

// TestDispatcherSinkEvents: a live sink must see consistent dispatch events
// — cycle/switch/fault counters matching the returned Results, a guard
// depth sample per lookup, and a hard-slack sample per completed (or never
// run) hard process — and must not perturb the results themselves.
func TestDispatcherSinkEvents(t *testing.T) {
	app := apps.CruiseController()
	tree := synthesize(t, app, 20)
	plain := runtime.MustNewDispatcher(tree)
	m := obs.NewMetrics()
	d := runtime.MustNewDispatcher(tree, runtime.WithSink(m))

	rng := rand.New(rand.NewSource(41))
	const cycles = 300
	var switches, recoveries, abandoned, hardDone int64
	for i := 0; i < cycles; i++ {
		sc := mustSample(app, rng, i%(app.K()+1))
		got := mustRun(t, d, sc)
		want := mustRun(t, plain, sc)
		if !resultsEqual(&got, &want) {
			t.Fatalf("scenario %d: sink changed the result", i)
		}
		switches += int64(got.Switches)
		recoveries += int64(got.Recoveries)
		for _, o := range got.Outcomes {
			if o == runtime.AbandonedByFault {
				abandoned++
			}
		}
		for _, h := range tree.App.HardIDs() {
			if got.Outcomes[h] == runtime.Completed {
				hardDone++
			}
		}
	}

	for _, c := range []struct {
		counter obs.Counter
		want    int64
	}{
		{obs.DispatchCycles, cycles},
		{obs.DispatchSwitches, switches},
		{obs.DispatchFaultsAbsorbed, recoveries},
		{obs.DispatchFaultsAbandoned, abandoned},
	} {
		if got := m.Counter(c.counter); got != c.want {
			t.Errorf("%s = %d, want %d", c.counter.Name(), got, c.want)
		}
	}
	s := m.Snapshot()
	if got := s.Histograms[obs.DispatchHardSlack.Name()].Count; got != hardDone {
		t.Errorf("hard-slack samples = %d, want %d (one per completed hard process)", got, hardDone)
	}
	if got := s.Histograms[obs.DispatchSwitchNode.Name()].Count; got != switches {
		t.Errorf("switch-node samples = %d, want %d", got, switches)
	}
	if s.Histograms[obs.DispatchGuardDepth.Name()].Count == 0 {
		t.Error("no guard-depth samples recorded")
	}
}

// TestScenarioValidate: the moved Scenario type keeps rejecting malformed
// hand-built scenarios.
func TestScenarioValidate(t *testing.T) {
	app := apps.Fig1()
	rng := rand.New(rand.NewSource(31))
	sc := mustSample(app, rng, 1)
	if err := sc.Validate(app); err != nil {
		t.Fatalf("sampled scenario invalid: %v", err)
	}
	bad := sc
	bad.NFaults = sc.NFaults + 1
	if err := bad.Validate(app); err == nil {
		t.Error("inconsistent NFaults accepted")
	}
	short := runtime.Scenario{Durations: sc.Durations[:1], FaultsAt: sc.FaultsAt}
	if err := short.Validate(app); err == nil {
		t.Error("short duration vector accepted")
	}
}
