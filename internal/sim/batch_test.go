package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

// utilSink records the per-scenario MCUtility observations; with
// Workers: 1 the single worker walks blocks in index order, so the
// recorded sequence is the scenario order.
type utilSink struct{ utilities []int64 }

func (s *utilSink) Add(obs.Counter, int64) {}
func (s *utilSink) Observe(h obs.Histogram, v int64) {
	if h == obs.MCUtility {
		s.utilities = append(s.utilities, v)
	}
}
func (s *utilSink) ObserveN(h obs.Histogram, v, n int64) {
	for ; n > 0; n-- {
		s.Observe(h, v)
	}
}

// TestBatchSamplerMatchesScalar: the engine's block loop must evaluate,
// scenario for scenario, exactly what a plain SampleRNGInto loop draws
// from the same per-scenario seeds and root victim pool — the blocks, the
// reused scratch and the streaming fold change nothing. The assertion
// runs through the real engine: a sequential evaluation's per-scenario
// utilities (via the sink) and its exact aggregates must equal a
// hand-rolled scalar loop over the same dispatcher.
func TestBatchSamplerMatchesScalar(t *testing.T) {
	app := apps.CruiseController()
	s, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	tree := StaticTree(app, s)
	const scenarios, faults = 600, 2
	const seed = 9

	sink := &utilSink{}
	st, err := MonteCarlo(tree, MCConfig{
		Scenarios: scenarios, Faults: faults, Seed: seed, Workers: 1, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.utilities) != scenarios {
		t.Fatalf("sink saw %d scenarios, want %d", len(sink.utilities), scenarios)
	}

	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	candidates := make([]model.ProcessID, 0, len(tree.Root().Schedule.Entries))
	for _, e := range tree.Root().Schedule.Entries {
		candidates = append(candidates, e.Proc)
	}
	var rng RNG
	var sc Scenario
	var res runtime.Result
	minU, maxU := math.Inf(1), math.Inf(-1)
	var hard int
	var switches int64
	for i := 0; i < scenarios; i++ {
		rng.Reseed(ScenarioSeed(seed, i))
		if err := SampleRNGInto(&sc, app, &rng, faults, candidates); err != nil {
			t.Fatal(err)
		}
		if err := d.RunInto(&res, sc); err != nil {
			t.Fatal(err)
		}
		if got := int64(math.Round(res.Utility)); got != sink.utilities[i] {
			t.Fatalf("scenario %d: batch utility %d, scalar %d — the engine diverged from SampleRNGInto", i, sink.utilities[i], got)
		}
		minU = math.Min(minU, res.Utility)
		maxU = math.Max(maxU, res.Utility)
		if len(res.HardViolations) > 0 {
			hard++
		}
		switches += int64(res.Switches)
	}
	if st.MinUtility != minU || st.MaxUtility != maxU {
		t.Errorf("min/max: batch [%g, %g], scalar [%g, %g]", st.MinUtility, st.MaxUtility, minU, maxU)
	}
	if st.HardViolations != hard {
		t.Errorf("hard violations: batch %d, scalar %d", st.HardViolations, hard)
	}
	if want := float64(switches) / scenarios; st.MeanSwitches != want {
		t.Errorf("mean switches: batch %g, scalar %g", st.MeanSwitches, want)
	}
}

// TestMonteCarloBatchWorkerInvariance: the full MCStats struct —
// percentile estimates included — is bit-identical for 1, 2 and 8 workers
// on all three reference fixtures. This is the engine's central contract:
// the block grid, the per-scenario seeds and the block-order fold are all
// independent of the partitioning.
func TestMonteCarloBatchWorkerInvariance(t *testing.T) {
	fixtures := []struct {
		name string
		app  *model.Application
	}{
		{"fig1", apps.Fig1()},
		{"fig8", apps.Fig8()},
		{"cc", apps.CruiseController()},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			tree, err := core.FTQS(fx.app, core.FTQSOptions{M: 8})
			if err != nil {
				t.Fatal(err)
			}
			cfg := MCConfig{Scenarios: 1500, Faults: min(1, fx.app.K()), Seed: 21}
			cfg.Workers = 1
			base, err := MonteCarlo(tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				cfg.Workers = w
				got, err := MonteCarlo(tree, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != base {
					t.Errorf("workers=%d: stats differ:\n  got  %+v\n  want %+v", w, got, base)
				}
			}
		})
	}
}

// TestMonteCarloBatchAllocs gates the streaming design: in steady state
// the engine allocates only its fixed per-run scratch (block partials,
// per-worker Scenario/Result buffers, histograms), so allocations per
// scenario must be ~0. A
// per-scenario allocation sneaking into the hot loop trips this
// immediately (0.05 × 4096 ≈ 205 ≪ one per scenario).
func TestMonteCarloBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	app := apps.Fig8()
	s, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	tree := StaticTree(app, s)
	d, err := runtime.NewDispatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	const scenarios = 4096
	cfg := MCConfig{Scenarios: scenarios, Faults: 1, Seed: 5, Workers: 1, Dispatcher: d}
	run := func() {
		if _, err := MonteCarlo(tree, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up
	perScenario := testing.AllocsPerRun(3, run) / scenarios
	if perScenario > 0.05 {
		t.Errorf("allocations per scenario = %.3f, want ~0 (< 0.05)", perScenario)
	}
}

// TestRunBlocksCancel: cancellation stops the driver within one block per
// worker and surfaces ctx.Err().
func TestRunBlocksCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	err := RunBlocks(ctx, 10*BlockSize, 1, func(int) func(int, int, int) error {
		return func(block, lo, hi int) error {
			ran++
			if block == 2 {
				cancel()
			}
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran >= 10 {
		t.Errorf("all %d blocks ran despite cancellation", ran)
	}
}

// TestRunBlocksError: a block error aborts the run and is returned.
func TestRunBlocksError(t *testing.T) {
	boom := fmt.Errorf("boom")
	err := RunBlocks(context.Background(), 4*BlockSize, 2, func(int) func(int, int, int) error {
		return func(block, lo, hi int) error {
			if block == 1 {
				return boom
			}
			return nil
		}
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestRunBlocksPartition: every index is visited exactly once, for worker
// counts below, at and above the block count.
func TestRunBlocksPartition(t *testing.T) {
	const n = 3*BlockSize + 17
	for _, workers := range []int{1, 3, 64} {
		visited := make([]int32, n)
		err := RunBlocks(context.Background(), n, workers, func(int) func(int, int, int) error {
			return func(block, lo, hi int) error {
				for i := lo; i < hi; i++ {
					visited[i]++
				}
				return nil
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range visited {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestMCConfigValidateTyped: invalid configurations surface as
// *ConfigError carrying the offending field and value.
func TestMCConfigValidateTyped(t *testing.T) {
	cases := []struct {
		cfg   MCConfig
		field string
		value int
	}{
		{MCConfig{Scenarios: 0}, "Scenarios", 0},
		{MCConfig{Scenarios: 10, Faults: -1}, "Faults", -1},
		{MCConfig{Scenarios: 10, Workers: -2}, "Workers", -2},
	}
	for _, c := range cases {
		_, err := c.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("%+v: err = %v, want *ConfigError", c.cfg, err)
		}
		if ce.Field != c.field || ce.Value != c.value {
			t.Errorf("got {%s %d}, want {%s %d}", ce.Field, ce.Value, c.field, c.value)
		}
	}
	if _, err := (MCConfig{Scenarios: 10, Workers: -2}).Validate(); err == nil || err.Error() != "sim: MCConfig.Workers must be non-negative (got -2)" {
		t.Errorf("message = %v", err)
	}
	// The MonteCarlo entry point applies Validate.
	app := apps.Fig1()
	s, err := core.FTSS(app)
	if err != nil {
		t.Fatal(err)
	}
	var ce *ConfigError
	if _, err := MonteCarlo(StaticTree(app, s), MCConfig{Scenarios: 100, Workers: -1}); !errors.As(err, &ce) {
		t.Errorf("MonteCarlo(Workers: -1) = %v, want *ConfigError", err)
	}
}
