package certify

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	goruntime "runtime"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/schedule"
)

func synthesize(t testing.TB, app *model.Application, m int) *core.Tree {
	t.Helper()
	tree, err := core.FTQS(app, core.FTQSOptions{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestCertifyFixturesClean: every built-in application's synthesised tree
// must certify with zero counterexamples at the full fault bound — this is
// the library's core guarantee exercised end to end through the compiled
// dispatcher. Run with -race, this is also the engine's concurrency test.
func TestCertifyFixturesClean(t *testing.T) {
	for _, tc := range []struct {
		app *model.Application
		m   int
	}{
		{apps.Fig1(), 12},
		{apps.Fig8(), 16},
		{apps.CruiseController(), 24},
	} {
		rep, err := Certify(synthesize(t, tc.app, tc.m), Config{})
		if err != nil {
			t.Errorf("%s: %v", tc.app.Name(), err)
			continue
		}
		if rep.Scenarios == 0 || rep.Patterns == 0 {
			t.Errorf("%s: empty exploration %+v", tc.app.Name(), rep)
		}
		// Slack 0 (completion exactly at the deadline) is legal; negative
		// slack would have come with a counterexample.
		if rep.WorstSlackProc == model.NoProcess || rep.WorstSlack < 0 {
			t.Errorf("%s: implausible worst slack %d (proc %d)",
				tc.app.Name(), rep.WorstSlack, rep.WorstSlackProc)
		}
	}
}

// TestCertifyWorkerDeterminism: the report must be bit-identical for every
// worker count, in both modes.
func TestCertifyWorkerDeterminism(t *testing.T) {
	tree := synthesize(t, apps.CruiseController(), 24)
	for _, budget := range []int64{0, 50} { // default => exhaustive-or-frontier, 50 => frontier
		var want Report
		for i, workers := range []int{1, 2, 7, 16} {
			rep, err := Certify(tree, Config{Workers: workers, Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = rep
				continue
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("budget %d workers %d: report diverged:\n%+v\n%+v", budget, workers, rep, want)
			}
		}
	}
}

// TestCertifyFrontierMode: a tiny budget must flip the engine to frontier
// mode, reported explicitly, with fewer scenarios than exhaustive.
func TestCertifyFrontierMode(t *testing.T) {
	tree := synthesize(t, apps.Fig1(), 12)
	full, err := Certify(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Mode != "exhaustive" {
		t.Fatalf("default mode = %q, want exhaustive", full.Mode)
	}
	small, err := Certify(tree, Config{Budget: 2})
	if err != nil {
		t.Fatal(err)
	}
	if small.Mode != "frontier" {
		t.Errorf("tiny-budget mode = %q, want frontier", small.Mode)
	}
	if small.Scenarios == 0 || small.Scenarios >= full.Scenarios {
		t.Errorf("frontier scenarios = %d, exhaustive = %d", small.Scenarios, full.Scenarios)
	}
}

// unsafeTree schedules every process with zero recoveries: structurally
// valid, semantically unsafe under any fault.
func unsafeTree(app *model.Application) *core.Tree {
	entries := make([]schedule.Entry, app.N())
	for id := 0; id < app.N(); id++ {
		entries[id] = schedule.Entry{Proc: model.ProcessID(id)}
	}
	return &core.Tree{
		App: app,
		Nodes: []core.Node{{
			Schedule:       &schedule.FSchedule{Entries: entries},
			Parent:         core.NoNode,
			DroppedOnFault: model.NoProcess,
		}},
	}
}

// TestCertifyCounterexampleDeterministic: the counterexample must be the
// lowest (pattern, scenario) violation regardless of worker count, and its
// scenario must replay to the same violation.
func TestCertifyCounterexampleDeterministic(t *testing.T) {
	app := apps.Fig1()
	tree := unsafeTree(app)
	var want *CounterexampleError
	for _, workers := range []int{1, 3, 8} {
		_, err := Certify(tree, Config{Workers: workers})
		var ceErr *CounterexampleError
		if !errors.As(err, &ceErr) {
			t.Fatalf("workers %d: err = %v, want *CounterexampleError", workers, err)
		}
		if want == nil {
			want = ceErr
			continue
		}
		if !reflect.DeepEqual(ceErr.Counterexample, want.Counterexample) {
			t.Fatalf("workers %d: counterexample diverged:\n%+v\n%+v",
				workers, ceErr.Counterexample, want.Counterexample)
		}
	}
	ce := &want.Counterexample
	if ce.Scenario.NFaults == 0 {
		t.Error("counterexample needs at least one fault on this tree")
	}
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Run(ce.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HardViolations) == 0 || res.HardViolations[0] != ce.Proc {
		t.Errorf("replay violations %v, want leading %d", res.HardViolations, ce.Proc)
	}
}

// TestCertifyMalformedTree: a tree that fails the structural audit yields
// the dispatcher's typed error, not a crash.
func TestCertifyMalformedTree(t *testing.T) {
	app := apps.Fig1()
	bad := unsafeTree(app)
	bad.Nodes[0].ArcStart, bad.Nodes[0].ArcEnd = 0, 9
	var mte *runtime.MalformedTreeError
	if _, err := Certify(bad, Config{}); !errors.As(err, &mte) {
		t.Fatalf("err = %v, want *MalformedTreeError", mte)
	}
}

// TestCertifyConfigBounds: fault bounds outside [0, k] are rejected;
// explicit bounds below k narrow the exploration; zero workers resolve to
// GOMAXPROCS.
func TestCertifyConfigBounds(t *testing.T) {
	tree := synthesize(t, apps.Fig8(), 16) // k = 2
	if _, err := Certify(tree, Config{MaxFaults: tree.App.K() + 1}); err == nil {
		t.Error("MaxFaults > k accepted")
	}
	if _, err := Certify(tree, Config{MaxFaults: -1}); err == nil {
		t.Error("negative MaxFaults accepted")
	}
	one, err := Certify(tree, Config{MaxFaults: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Certify(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if one.MaxFaults != 1 || full.MaxFaults != tree.App.K() {
		t.Errorf("resolved bounds %d/%d, want 1/%d", one.MaxFaults, full.MaxFaults, tree.App.K())
	}
	if one.Patterns >= full.Patterns {
		t.Errorf("patterns %d at k=1 not below %d at k=%d", one.Patterns, full.Patterns, tree.App.K())
	}
	// Workers 0 resolves to GOMAXPROCS, like every other engine.
	prev := goruntime.GOMAXPROCS(1)
	cfg, err := Config{}.Validate()
	goruntime.GOMAXPROCS(prev)
	if err != nil || cfg.Workers != 1 {
		t.Errorf("under GOMAXPROCS(1): Workers = %d, err = %v; want 1", cfg.Workers, err)
	}
}

// TestCertifyCancellation: a cancelled context unwinds promptly with
// ctx.Err().
func TestCertifyCancellation(t *testing.T) {
	tree := synthesize(t, apps.CruiseController(), 24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CertifyContext(ctx, tree, Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCertifySinkEvents: the sink sees pattern/scenario/bisection counts
// matching the report and a worst-slack sample per pattern with hard
// completions — and never changes the report.
func TestCertifySinkEvents(t *testing.T) {
	tree := synthesize(t, apps.Fig1(), 12)
	plain, err := Certify(tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	rep, err := Certify(tree, Config{Sink: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, plain) {
		t.Error("sink changed the report")
	}
	for _, c := range []struct {
		counter obs.Counter
		want    int64
	}{
		{obs.CertifyScenarios, rep.Scenarios},
		{obs.CertifyPatterns, int64(rep.Patterns)},
		{obs.CertifyPatternsPruned, int64(rep.PatternsPruned)},
		{obs.CertifyBisectionRuns, rep.BisectionRuns},
	} {
		if got := m.Counter(c.counter); got != c.want {
			t.Errorf("%s = %d, want %d", c.counter.Name(), got, c.want)
		}
	}
	if got := m.Snapshot().Histograms[obs.CertifyWorstSlack.Name()].Count; got == 0 {
		t.Error("no worst-slack samples recorded")
	}
}

// TestPatternCanonicalisation: faults beyond a victim's attempt bound must
// collapse into the capped pattern — Fig1 has single-recovery entries, so
// at k=1 nothing prunes, while a synthetic 2-fault bound on a 1-attempt
// victim must.
func TestPatternCanonicalisation(t *testing.T) {
	n := 2
	candidates := []model.ProcessID{0, 1}
	// Process 0 allows 2 attempts, process 1 only 1: the multiset {1,1}
	// caps to {1} which duplicates the size-1 pattern.
	patterns, pruned := enumeratePatterns(n, candidates, 2, []int{2, 1})
	if pruned == 0 {
		t.Fatalf("no pruning on capped victim: %d patterns", len(patterns))
	}
	seen := make(map[string]bool)
	counts := make([]int, n)
	for _, p := range patterns {
		p.faultsAt(counts)
		key := ""
		for _, c := range counts {
			key += string(rune('0' + c))
		}
		if seen[key] {
			t.Fatalf("duplicate pattern %v survived", counts)
		}
		seen[key] = true
		if counts[1] > 1 {
			t.Fatalf("pattern %v exceeds victim 1's attempt bound", counts)
		}
	}
}

// TestPatternsMatchCappedDedup holds enumeratePatterns to its definition:
// every raw victim multiset of size 0..maxFaults, in enumeration order,
// capped at the attempt bounds and deduplicated on the capped count
// vector, with the duplicates counted as pruned.
func TestPatternsMatchCappedDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		var candidates []model.ProcessID
		for _, p := range rng.Perm(n)[:1+rng.Intn(n)] {
			candidates = append(candidates, model.ProcessID(p))
		}
		attempts := make([]int, n)
		for p := range attempts {
			attempts[p] = rng.Intn(4)
		}
		maxFaults := rng.Intn(5)

		var want [][]int
		wantPruned := 0
		seen := make(map[string]bool)
		counts := make([]int, n)
		var rec func(start, left int)
		rec = func(start, left int) {
			if left > 0 {
				for ci := start; ci < len(candidates); ci++ {
					counts[candidates[ci]]++
					rec(ci, left-1)
					counts[candidates[ci]]--
				}
				return
			}
			capped := make([]int, n)
			for p, c := range counts {
				capped[p] = min(c, attempts[p])
			}
			if key := fmt.Sprint(capped); seen[key] {
				wantPruned++
			} else {
				seen[key] = true
				want = append(want, capped)
			}
		}
		for size := 0; size <= maxFaults; size++ {
			rec(0, size)
		}

		patterns, pruned := enumeratePatterns(n, candidates, maxFaults, attempts)
		got := make([][]int, len(patterns))
		for i := range patterns {
			got[i] = make([]int, n)
			patterns[i].faultsAt(got[i])
		}
		if pruned != wantPruned || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (candidates %v, attempts %v, maxFaults %d):\ngot  %v, %d pruned\nwant %v, %d pruned",
				trial, candidates, attempts, maxFaults, got, pruned, want, wantPruned)
		}
	}
}
