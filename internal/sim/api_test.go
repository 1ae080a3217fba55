package sim

import (
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

func buildTree(t *testing.T, m int) *core.Tree {
	t.Helper()
	tree, err := core.FTQS(apps.CruiseController(), core.FTQSOptions{M: m})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestMCConfigValidate: zero workers default to GOMAXPROCS; impossible
// values are rejected.
func TestMCConfigValidate(t *testing.T) {
	got, err := MCConfig{Scenarios: 10}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if got.Workers != goruntime.GOMAXPROCS(0) {
		t.Errorf("Workers = %d, want GOMAXPROCS %d", got.Workers, goruntime.GOMAXPROCS(0))
	}
	prev := goruntime.GOMAXPROCS(1)
	got, err = MCConfig{Scenarios: 10}.Validate()
	goruntime.GOMAXPROCS(prev)
	if err != nil || got.Workers != 1 {
		t.Errorf("under GOMAXPROCS(1): Workers = %d, err = %v; want 1", got.Workers, err)
	}
	for name, c := range map[string]MCConfig{
		"no scenarios":      {},
		"negative faults":   {Scenarios: 1, Faults: -1},
		"negative workers":  {Scenarios: 1, Workers: -2},
		"negative scenario": {Scenarios: -5},
	} {
		if _, err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMonteCarloDispatcherReuse: a caller-supplied pre-compiled dispatcher
// must produce bit-identical statistics, and one compiled from another tree
// must be rejected.
func TestMonteCarloDispatcherReuse(t *testing.T) {
	tree := buildTree(t, 20)
	cfg := MCConfig{Scenarios: 500, Faults: 2, Seed: 7}
	want, err := MonteCarlo(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := runtime.MustNewDispatcher(tree)
	cfg.Dispatcher = d
	for run := 0; run < 2; run++ { // reuse across calls
		got, err := MonteCarlo(tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: reused dispatcher diverged: %+v != %+v", run, got, want)
		}
	}
	other := buildTree(t, 8)
	cfg.Dispatcher = runtime.MustNewDispatcher(other)
	if _, err := MonteCarlo(tree, cfg); err == nil {
		t.Error("dispatcher from a different tree accepted")
	}
}

// TestMonteCarloContextCancelled: cancellation unwinds the workers promptly
// and surfaces ctx.Err().
func TestMonteCarloContextCancelled(t *testing.T) {
	tree := buildTree(t, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MonteCarloContext(ctx, tree, MCConfig{Scenarios: 100000, Faults: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestMonteCarloSinkEvents: the sink observes the run, the scenario count
// and a utility sample per scenario, and never changes the statistics.
func TestMonteCarloSinkEvents(t *testing.T) {
	tree := buildTree(t, 20)
	cfg := MCConfig{Scenarios: 400, Faults: 1, Seed: 3}
	want, err := MonteCarlo(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	cfg.Sink = m
	got, err := MonteCarlo(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("sink changed the statistics")
	}
	if n := m.Counter(obs.MCRuns); n != 1 {
		t.Errorf("MCRuns = %d, want 1", n)
	}
	if n := m.Counter(obs.MCScenarios); n != int64(cfg.Scenarios) {
		t.Errorf("MCScenarios = %d, want %d", n, cfg.Scenarios)
	}
	if n := m.Snapshot().Histograms[obs.MCUtility.Name()].Count; n != int64(cfg.Scenarios) {
		t.Errorf("utility samples = %d, want %d", n, cfg.Scenarios)
	}
	// The internally built dispatcher inherits the sink.
	if n := m.Counter(obs.DispatchCycles); n != int64(cfg.Scenarios) {
		t.Errorf("DispatchCycles = %d, want %d", n, cfg.Scenarios)
	}
}

// TestTrimContextCancelled: cancelling mid-trim restores every disabled
// guard, leaving the tree exactly as passed in.
func TestTrimContextCancelled(t *testing.T) {
	tree := buildTree(t, 16)
	savedNodes := append([]core.Node(nil), tree.Nodes...)
	savedArcs := append([]core.Arc(nil), tree.Arcs...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	removed, err := TrimContext(ctx, tree, TrimConfig{Scenarios: 50, Seed: 9})
	if !errors.Is(err, context.Canceled) || removed != 0 {
		t.Fatalf("TrimContext = (%d, %v), want (0, context.Canceled)", removed, err)
	}
	if !reflect.DeepEqual(tree.Nodes, savedNodes) || !reflect.DeepEqual(tree.Arcs, savedArcs) {
		t.Error("cancelled trim left the tree modified")
	}
}

// TestTrimSinkEvents: trimming reports every arc evaluation and the final
// removal count.
func TestTrimSinkEvents(t *testing.T) {
	tree := buildTree(t, 12)
	arcs := len(tree.Arcs)
	m := obs.NewMetrics()
	removed, err := Trim(tree, TrimConfig{Scenarios: 30, Seed: 5, Sink: m})
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Counter(obs.TrimArcsEvaluated); n != int64(arcs) {
		t.Errorf("TrimArcsEvaluated = %d, want %d", n, arcs)
	}
	if n := m.Counter(obs.TrimArcsRemoved); n != int64(removed) {
		t.Errorf("TrimArcsRemoved = %d, want %d", n, removed)
	}
	if m.Counter(obs.TrimReplays) == 0 {
		t.Error("no replays recorded")
	}
}
