package ftsched_test

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ftsched"
)

// countingSink is a minimal third-party Sink implementation: the facade's
// Sink, Counter and HistogramMetric aliases are all an importer needs.
type countingSink struct {
	adds, observes int64
}

func (s *countingSink) Add(_ ftsched.Counter, delta int64)             { s.adds += delta }
func (s *countingSink) Observe(h ftsched.HistogramMetric, v int64)     { s.ObserveN(h, v, 1) }
func (s *countingSink) ObserveN(_ ftsched.HistogramMetric, _, n int64) { s.observes += n }

// TestFacadeObservability drives the whole observability surface through
// the facade: a collector fed by synthesis, dispatch, Monte-Carlo and
// trimming, exported over HTTP, with results bit-identical to an
// uninstrumented run.
func TestFacadeObservability(t *testing.T) {
	app := ftsched.CruiseController()
	plainTree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 16})
	if err != nil {
		t.Fatal(err)
	}

	m := ftsched.NewMetrics()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 16, Sink: m})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tree.Nodes, plainTree.Nodes) || !reflect.DeepEqual(tree.Arcs, plainTree.Arcs) {
		t.Error("sink changed the synthesised tree")
	}

	// One dispatcher, explicitly instrumented, reused by the evaluation.
	d, err := ftsched.NewDispatcher(tree, ftsched.WithSink(m))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ftsched.MCConfig{Scenarios: 300, Faults: 1, Seed: 11, Dispatcher: d, Sink: m}
	st, err := ftsched.MonteCarlo(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{Scenarios: 300, Faults: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, plain) {
		t.Error("instrumentation changed the Monte-Carlo statistics")
	}

	if _, err := ftsched.TrimTree(tree, ftsched.TrimConfig{Scenarios: 20, Seed: 2, Sink: m}); err != nil {
		t.Fatal(err)
	}

	snap := m.Snapshot()
	for _, name := range []string{
		"ftsched_ftqs_nodes_expanded_total",
		"ftsched_dispatch_cycles_total",
		"ftsched_montecarlo_scenarios_total",
		"ftsched_trim_arcs_evaluated_total",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s not populated", name)
		}
	}
	if snap.Histograms["ftsched_montecarlo_utility"].Count == 0 {
		t.Error("utility histogram not populated")
	}

	// HTTP export: Prometheus text, expvar JSON, pprof.
	srv := httptest.NewServer(ftsched.MetricsHandler(m))
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "ftsched_dispatch_cycles_total") {
		t.Errorf("/metrics missing dispatch counter:\n%.400s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "ftsched") {
		t.Errorf("/debug/vars missing ftsched var:\n%.400s", body)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}

	// ServeMetrics binds a real listener and shuts down cleanly.
	addr, shutdown, err := ftsched.ServeMetrics("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}

	// A NopSink behaves like no sink at all; a custom Sink receives events.
	if _, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{Scenarios: 50, Seed: 1, Sink: ftsched.NopSink{}}); err != nil {
		t.Fatal(err)
	}
	cs := &countingSink{}
	var opt ftsched.DispatcherOption = ftsched.WithSink(cs)
	if _, err := ftsched.NewDispatcher(tree, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{Scenarios: 50, Seed: 1, Sink: cs}); err != nil {
		t.Fatal(err)
	}
	if cs.adds == 0 || cs.observes == 0 {
		t.Errorf("custom sink saw adds=%d observes=%d", cs.adds, cs.observes)
	}
}

// TestFacadeContextEntryPoints exercises the context-aware variants and the
// typed unschedulability error through the facade alone.
func TestFacadeContextEntryPoints(t *testing.T) {
	app := ftsched.CruiseController()
	ctx := context.Background()
	tree, err := ftsched.FTQSContext(ctx, app, ftsched.FTQSOptions{M: 12})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ftsched.MonteCarloContext(ctx, tree, ftsched.MCConfig{Scenarios: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ftsched.TrimTreeContext(ctx, tree, ftsched.TrimConfig{Scenarios: 10, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ftsched.FTQSContext(cancelled, app, ftsched.FTQSOptions{M: 12}); !errors.Is(err, context.Canceled) {
		t.Errorf("FTQSContext: %v, want context.Canceled", err)
	}
	if _, err := ftsched.MonteCarloContext(cancelled, tree, ftsched.MCConfig{Scenarios: 100}); !errors.Is(err, context.Canceled) {
		t.Errorf("MonteCarloContext: %v, want context.Canceled", err)
	}
	if _, err := ftsched.TrimTreeContext(cancelled, tree, ftsched.TrimConfig{Scenarios: 10}); !errors.Is(err, context.Canceled) {
		t.Errorf("TrimTreeContext: %v, want context.Canceled", err)
	}

	// Typed unschedulability: the sentinel still matches, the detail is
	// extractable.
	bad := ftsched.NewApplication("bad", 1000, 2, 10)
	bad.AddProcess(ftsched.Process{Name: "H", Kind: ftsched.Hard, BCET: 50, AET: 60, WCET: 80, Deadline: 100})
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	_, err = ftsched.FTQS(bad, ftsched.FTQSOptions{M: 4})
	if !errors.Is(err, ftsched.ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
	var ue *ftsched.UnschedulableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnschedulableError", err)
	}
	if ue.Process != bad.IDByName("H") || ue.WorstCase <= ue.Deadline {
		t.Errorf("detail = %+v", ue)
	}
}
