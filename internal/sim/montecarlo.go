package sim

import (
	"context"
	"fmt"
	goruntime "runtime"

	"ftsched/internal/core"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
)

// MCConfig parametrises a Monte-Carlo evaluation.
type MCConfig struct {
	// Scenarios is the number of execution scenarios to simulate (the
	// paper uses 20 000 per configuration).
	Scenarios int
	// Faults is the number of transient faults injected per scenario
	// (0 <= Faults <= k).
	Faults int
	// Seed makes the evaluation reproducible.
	Seed int64
	// Workers spreads the scenario blocks over goroutines. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces sequential evaluation. Results are
	// bit-identical for any worker count: scenario i always derives from
	// (Seed, i) and statistics fold in fixed block order.
	Workers int
	// Dispatcher optionally reuses a pre-compiled dispatcher across
	// evaluations; nil compiles the tree internally. It must have been
	// compiled from the very tree being evaluated (pointer identity), which
	// is checked. Results are identical either way.
	Dispatcher *runtime.Dispatcher
	// Sink receives evaluation events (runs, scenario throughput, the
	// per-scenario utility distribution). When the dispatcher is built
	// internally it inherits the sink, so dispatch events flow too; a
	// caller-supplied Dispatcher keeps whatever sink it was built with. A
	// nil sink or obs.NopSink disables instrumentation. Instrumentation
	// never alters the statistics.
	Sink obs.Sink
}

// ConfigError reports an MCConfig field that fails validation, carrying
// the field name and the rejected value so CLIs and tests can react to
// the specific field instead of parsing a message.
type ConfigError struct {
	// Field is the MCConfig field name ("Scenarios", "Faults", "Workers").
	Field string
	// Value is the rejected value.
	Value int
}

// Error implements error.
func (e *ConfigError) Error() string {
	switch e.Field {
	case "Scenarios":
		return fmt.Sprintf("sim: MCConfig.Scenarios must be positive (got %d)", e.Value)
	default:
		return fmt.Sprintf("sim: MCConfig.%s must be non-negative (got %d)", e.Field, e.Value)
	}
}

// Validate normalises the configuration and rejects impossible values with
// a *ConfigError: a non-positive scenario count, a negative fault count or
// a negative worker count. Workers 0 is replaced by GOMAXPROCS. The
// fault upper bound depends on the application and is checked by
// MonteCarlo itself. Every evaluation entry point applies Validate, so CLI
// flags and library callers get the same diagnostics.
func (c MCConfig) Validate() (MCConfig, error) {
	if c.Scenarios <= 0 {
		return c, &ConfigError{Field: "Scenarios", Value: c.Scenarios}
	}
	if c.Faults < 0 {
		return c, &ConfigError{Field: "Faults", Value: c.Faults}
	}
	if c.Workers < 0 {
		return c, &ConfigError{Field: "Workers", Value: c.Workers}
	}
	if c.Workers == 0 {
		c.Workers = goruntime.GOMAXPROCS(0)
	}
	return c, nil
}

// MCStats aggregates a Monte-Carlo evaluation.
type MCStats struct {
	// MeanUtility is the overall utility averaged over all scenarios —
	// the paper's figure of merit.
	MeanUtility float64
	// StdDev is the sample standard deviation of the utility.
	StdDev float64
	// MinUtility and MaxUtility bound the observed utilities.
	MinUtility, MaxUtility float64
	// P05, P50 and P95 are utility percentile estimates from the engine's
	// streaming 256-bucket histogram (nearest-rank bucket, interpolated
	// between the bucket's observed min and max). The estimate error is
	// bounded by one bucket width — ≤ 0.4% of the application's utility
	// range — and Min ≤ P05 ≤ P50 ≤ P95 ≤ Max always holds. The spread
	// matters for soft real-time quality-of-service reporting, where the
	// mean hides bad tails.
	P05, P50, P95 float64
	// HardViolations counts scenarios with at least one hard-deadline
	// violation; it must be zero for correct schedules.
	HardViolations int
	// Degraded counts scenarios the dispatcher's envelope degraded —
	// PolicyShedSoft dropped soft work for the emergency hard-only
	// suffix. Zero unless the evaluation runs through a dispatcher with
	// an attached envelope (MCConfig.Dispatcher + runtime.WithEnvelope).
	Degraded int
	// Violations counts envelope violation events across all scenarios,
	// including the in-model BudgetExhausted records every dispatcher
	// reports.
	Violations int
	// MeanSwitches is the average number of schedule switches taken.
	MeanSwitches float64
	// MeanRecoveries is the average number of re-executions performed.
	MeanRecoveries float64
	// MeanEnergy is the average platform energy consumed per cycle
	// (active + idle over all cores); MeanEnergyActive and MeanEnergyIdle
	// are the two summands. On the canonical single-core platform
	// MeanEnergy equals the mean busy time of the core. Kept as scalars so
	// MCStats stays comparable; per-core breakdowns come from
	// runtime.Result.CoreEnergy.
	MeanEnergy, MeanEnergyActive, MeanEnergyIdle float64
	// Scenarios echoes the number of scenarios simulated.
	Scenarios int
}

// ScenarioSeed derives the independent seed of scenario i from the
// configuration seed with a splitmix64-style mix, so that the scenario
// stream does not depend on how scenarios are partitioned over workers.
// It is the seeding discipline of every scenario-indexed evaluation in
// this module (Monte-Carlo, chaos campaigns): derive per-index seeds from
// it and worker counts can never change results.
func ScenarioSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// MonteCarlo evaluates a quasi-static tree (or a StaticTree-wrapped
// f-schedule) over cfg.Scenarios random execution scenarios with
// cfg.Faults injected faults each, and returns the aggregate statistics.
// Evaluation runs on the batch engine (see batch.go): scenario blocks are
// spread over cfg.Workers goroutines (default: GOMAXPROCS), each scenario
// reseeds a per-scenario RNG from ScenarioSeed, and statistics stream into
// fixed accumulators folded in block order — so the result is bit-identical
// for any worker count and the steady state simulates without allocation
// regardless of the scenario count.
func MonteCarlo(tree *core.Tree, cfg MCConfig) (MCStats, error) {
	return MonteCarloContext(context.Background(), tree, cfg)
}

// MonteCarloContext is MonteCarlo honouring cancellation: every worker
// checks ctx before each scenario block, so the evaluation unwinds within
// one block's simulation time per worker and returns ctx.Err(). Partial
// statistics are discarded.
func MonteCarloContext(ctx context.Context, tree *core.Tree, cfg MCConfig) (MCStats, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return MCStats{}, err
	}
	app := tree.App
	if cfg.Faults > app.K() {
		return MCStats{}, fmt.Errorf("sim: Faults %d outside [0, k=%d]", cfg.Faults, app.K())
	}
	candidates := rootVictims(tree)
	var sink obs.Sink
	if obs.Live(cfg.Sink) {
		sink = cfg.Sink
	}
	if cfg.Faults > 0 && len(candidates) == 0 {
		return MCStats{}, &SampleError{NFaults: cfg.Faults, EmptyPool: true}
	}
	d := cfg.Dispatcher
	if d == nil {
		var derr error
		d, derr = runtime.NewDispatcher(tree, runtime.WithSink(sink))
		if derr != nil {
			return MCStats{}, derr
		}
	} else if d.Tree() != tree {
		return MCStats{}, fmt.Errorf("sim: MCConfig.Dispatcher was compiled from a different tree")
	}
	return newMCBatch(app, d, cfg, candidates, sink).run(ctx)
}
