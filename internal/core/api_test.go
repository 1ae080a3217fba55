package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/obs"
)

// unschedulableApp is a single hard process whose deadline cannot absorb
// k = 2 re-executions.
func unschedulableApp(t *testing.T) *model.Application {
	t.Helper()
	a := model.NewApplication("un", 1000, 2, 10)
	a.AddProcess(model.Process{Name: "H", Kind: model.Hard, BCET: 50, AET: 60, WCET: 80, Deadline: 100})
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestUnschedulableErrorTyped: synthesis failures keep matching the
// sentinel via errors.Is and additionally carry the offending process,
// its deadline and the worst-case completion via errors.As.
func TestUnschedulableErrorTyped(t *testing.T) {
	app := unschedulableApp(t)
	for name, synth := range map[string]func() error{
		"FTSS": func() error { _, err := FTSS(app); return err },
		"FTQS": func() error { _, err := FTQS(app, FTQSOptions{M: 4}); return err },
	} {
		err := synth()
		if err == nil {
			t.Fatalf("%s: expected unschedulable", name)
		}
		if !errors.Is(err, ErrUnschedulable) {
			t.Errorf("%s: errors.Is(err, ErrUnschedulable) = false for %v", name, err)
		}
		var ue *UnschedulableError
		if !errors.As(err, &ue) {
			t.Fatalf("%s: error %v does not carry *UnschedulableError", name, err)
		}
		if ue.Process != app.IDByName("H") {
			t.Errorf("%s: offending process = %d, want %d", name, ue.Process, app.IDByName("H"))
		}
		if ue.Deadline != 100 {
			t.Errorf("%s: deadline = %d, want 100", name, ue.Deadline)
		}
		// 3 executions + 2 recoveries: 3*80 + 2*10 = 260.
		if ue.WorstCase <= ue.Deadline {
			t.Errorf("%s: worst-case completion %d does not exceed the deadline", name, ue.WorstCase)
		}
	}
}

// TestFTQSOptionsValidate: the zero value validates to the documented
// defaults; impossible values are rejected.
func TestFTQSOptionsValidate(t *testing.T) {
	got, err := FTQSOptions{}.Validate()
	if err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	want := FTQSOptions{}.withDefaults()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Validate() = %+v, want defaults %+v", got, want)
	}
	prev := runtime.GOMAXPROCS(1)
	got, err = FTQSOptions{}.Validate()
	runtime.GOMAXPROCS(prev)
	if err != nil || got.Workers != 1 {
		t.Errorf("under GOMAXPROCS(1): Workers = %d, err = %v; want 1", got.Workers, err)
	}
	for _, tc := range []struct {
		name  string
		opts  FTQSOptions
		field string
	}{
		{"negative sweep", FTQSOptions{SweepSamples: -1}, "SweepSamples"},
		{"negative eval", FTQSOptions{EvalScenarios: -2}, "EvalScenarios"},
		{"negative workers", FTQSOptions{Workers: -1}, "Workers"},
		{"NaN gain", FTQSOptions{MinGain: math.NaN()}, "MinGain"},
		{"Inf gain", FTQSOptions{MinGain: math.Inf(1)}, "MinGain"},
	} {
		_, err := tc.opts.Validate()
		var oe *OptionsError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Errorf("%s: err = %v, want *OptionsError on %s", tc.name, err, tc.field)
		}
	}
}

// TestFTQSContextCancellation: a cancelled context aborts synthesis with
// ctx.Err(), both when cancelled up front and mid-run, and the par.For
// workers that fan out each node's candidate positions are reaped before
// FTQSContext returns.
func TestFTQSContextCancellation(t *testing.T) {
	app := apps.CruiseController()
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FTQSContext(ctx, app, FTQSOptions{M: 64, Workers: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	// Large M so the synthesis is still running when cancel fires on any
	// host; a fast host finishing early returns a valid tree, which is
	// also correct — only an error other than ctx.Err() is a failure.
	tree, err := FTQSContext(ctx, app, FTQSOptions{M: 100000, Workers: 4})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: err = %v", err)
	}
	if err == nil && tree == nil {
		t.Fatal("nil tree without error")
	}

	// par.For joins its workers before returning, so none may outlive the
	// call.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestFTQSSinkEvents: a live sink observes a consistent synthesis picture
// and never changes the resulting tree.
func TestFTQSSinkEvents(t *testing.T) {
	app := apps.Fig8()
	plain, err := FTQS(app, FTQSOptions{M: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	tree, err := FTQS(app, FTQSOptions{M: 16, Workers: 2, Sink: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree.Nodes, plain.Nodes) || !reflect.DeepEqual(tree.Arcs, plain.Arcs) {
		t.Error("sink changed the synthesised tree")
	}

	expanded := m.Counter(obs.FTQSNodesExpanded)
	if expanded == 0 {
		t.Error("no node expansions recorded")
	}
	if m.Counter(obs.FTQSMemoHits)+m.Counter(obs.FTQSMemoMisses) == 0 {
		t.Error("no memoisation traffic recorded")
	}
	// 16 nodes were attached (15 beyond the root), so at least that many
	// candidates were kept.
	if kept := m.Counter(obs.FTQSCandidatesKept); kept < int64(len(tree.Nodes)-1) {
		t.Errorf("candidates kept = %d, want >= %d", kept, len(tree.Nodes)-1)
	}
	if m.Counter(obs.FTQSWorkerBusyNanos) == 0 {
		t.Error("no worker busy time recorded")
	}
}
