package runtime_test

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"testing"

	"ftsched/internal/apps"
	"ftsched/internal/model"
	"ftsched/internal/obs"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// BenchmarkDispatch measures one simulated operation cycle on the cruise
// controller tree (M=20, two injected faults) with a pre-compiled
// dispatcher and a reused Result — the steady state of a Monte-Carlo
// evaluation. The pre-refactor executor walked the pointer tree and
// allocated the result and the guard scan per cycle (35 allocs/op);
// EXPERIMENTS.md records the before/after numbers.
func BenchmarkDispatch(b *testing.B) {
	app := apps.CruiseController()
	tree := synthesize(b, app, 20)
	d := runtime.MustNewDispatcher(tree)
	rng := rand.New(rand.NewSource(1))
	sc := mustSample(app, rng, 2)
	var res runtime.Result
	d.RunInto(&res, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RunInto(&res, sc)
	}
}

// BenchmarkDispatchNopSink is BenchmarkDispatch with an explicitly
// installed NopSink: the disabled-observability path, which must be
// indistinguishable from no sink at all.
func BenchmarkDispatchNopSink(b *testing.B) {
	benchDispatchSink(b, obs.NopSink{})
}

// BenchmarkDispatchSink is BenchmarkDispatch with a live Metrics collector
// attached; the delta against BenchmarkDispatch is the full per-cycle
// instrumentation cost (counter flush, slack/switch observations, batched
// guard-depth histogram).
func BenchmarkDispatchSink(b *testing.B) {
	benchDispatchSink(b, obs.NewMetrics())
}

func benchDispatchSink(b *testing.B, s obs.Sink) {
	app := apps.CruiseController()
	tree := synthesize(b, app, 20)
	d := runtime.MustNewDispatcher(tree, runtime.WithSink(s))
	rng := rand.New(rand.NewSource(1))
	sc := mustSample(app, rng, 2)
	var res runtime.Result
	d.RunInto(&res, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RunInto(&res, sc)
	}
}

// BenchmarkDispatchEnvelope measures the containment layer's cost on the
// cycle of BenchmarkDispatch: the in-model variant prices pure detection
// (per-entry WCET/regression checks plus the fault-bound check), the
// out-of-model variant additionally walks the shed path — violation
// record, emergency-suffix switch — every cycle under PolicyShedSoft.
func BenchmarkDispatchEnvelope(b *testing.B) {
	app := apps.CruiseController()
	rng := rand.New(rand.NewSource(1))
	inSc := mustSample(app, rng, 2)
	outSc := mustSample(app, rng, 0)
	soft := app.SoftIDs()
	outSc.Durations[soft[0]] = app.Proc(soft[0]).WCET + 50
	for _, tc := range []struct {
		name   string
		policy runtime.DegradePolicy
		sc     runtime.Scenario
	}{
		{"shed-soft/in-model", runtime.PolicyShedSoft, inSc},
		{"shed-soft/out-of-model", runtime.PolicyShedSoft, outSc},
		{"best-effort/out-of-model", runtime.PolicyBestEffort, outSc},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tree := synthesize(b, app, 20)
			d := runtime.MustNewDispatcher(tree, runtime.WithEnvelope(runtime.EnvelopeConfig{Policy: tc.policy}))
			var res runtime.Result
			d.RunInto(&res, tc.sc)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.RunInto(&res, tc.sc)
			}
		})
	}
}

// BenchmarkMonteCarlo measures the full parallel evaluation pipeline —
// compile, sample, dispatch, reduce — at the scale of one experiment
// configuration (2000 scenarios, two faults each).
func BenchmarkMonteCarlo(b *testing.B) {
	app := apps.CruiseController()
	tree := synthesize(b, app, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.MonteCarlo(tree, sim.MCConfig{Scenarios: 2000, Faults: 2, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloBatch measures the batch evaluation engine in its
// steady state — the BENCH_dispatch.json workload (cruise controller,
// M=20, 2000 scenarios, two faults each) with a pre-compiled dispatcher —
// sequentially and with one worker per CPU. The scenarios/sec metric is
// the engine's headline number; the `batch` block of BENCH_dispatch.json
// records it next to the pre-engine per-scenario baseline.
func BenchmarkMonteCarloBatch(b *testing.B) {
	app := apps.CruiseController()
	tree := synthesize(b, app, 20)
	d := runtime.MustNewDispatcher(tree)
	const scenarios = 2000
	workerCounts := []int{1}
	if n := goruntime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := sim.MCConfig{Scenarios: scenarios, Faults: 2, Seed: 1, Workers: workers, Dispatcher: d}
			if _, err := sim.MonteCarlo(tree, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.MonteCarlo(tree, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(scenarios)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/sec")
		})
	}
}

// BenchmarkDispatchMapped is BenchmarkDispatch on the same cruise
// controller tree synthesised for the heterogeneous lp/hp platform with
// the biased mapping: per-core ready times, cross-core precedence and the
// per-core energy fold are all on the hot path. The delta against
// BenchmarkDispatch is the whole cost of the platform generalisation;
// the `dispatch_mapped` block of BENCH_dispatch.json records it.
func BenchmarkDispatchMapped(b *testing.B) {
	base := apps.CruiseController()
	plat := lpHP(b)
	app, err := base.WithPlatform(plat, model.BiasedMapping(base, plat))
	if err != nil {
		b.Fatal(err)
	}
	tree := synthesize(b, app, 20)
	d := runtime.MustNewDispatcher(tree)
	rng := rand.New(rand.NewSource(1))
	sc := mustSample(app, rng, 2)
	var res runtime.Result
	d.RunInto(&res, sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RunInto(&res, sc)
	}
}

// BenchmarkMonteCarloHetero is BenchmarkMonteCarloBatch on the mapped
// heterogeneous tree — the end-to-end cost of a Monte-Carlo evaluation
// when every scenario runs the two-core timeline and the energy
// accounting.
func BenchmarkMonteCarloHetero(b *testing.B) {
	base := apps.CruiseController()
	plat := lpHP(b)
	app, err := base.WithPlatform(plat, model.BiasedMapping(base, plat))
	if err != nil {
		b.Fatal(err)
	}
	tree := synthesize(b, app, 20)
	d := runtime.MustNewDispatcher(tree)
	const scenarios = 2000
	workerCounts := []int{1}
	if n := goruntime.NumCPU(); n > 1 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := sim.MCConfig{Scenarios: scenarios, Faults: 2, Seed: 1, Workers: workers, Dispatcher: d}
			if _, err := sim.MonteCarlo(tree, cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.MonteCarlo(tree, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(scenarios)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/sec")
		})
	}
}
