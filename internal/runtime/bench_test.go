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

// BenchmarkReplayerResume measures certification's per-scenario layer
// on the cruise controller tree its benchmark certifies (M=39): the
// frontier sweep's single-process deviations, each process at its BCET,
// mid-point and WCET, resumed as leaves against the recorded all-BCET and
// all-WCET backgrounds of one two-fault pattern. One op is one resumed
// scenario.
func BenchmarkReplayerResume(b *testing.B) {
	app := apps.CruiseController()
	tree := synthesize(b, app, 39)
	d := runtime.MustNewDispatcher(tree)
	n := app.N()
	faults := make([]int, n)
	entries := tree.Nodes[0].Schedule.Entries
	faults[entries[0].Proc]++
	faults[entries[len(entries)/2].Proc]++
	var bgs [2]runtime.Scenario
	for i := range bgs {
		bgs[i] = runtime.Scenario{Durations: make([]model.Time, n), FaultsAt: faults, NFaults: 2}
	}
	type deviation struct {
		bg  int
		p   model.ProcessID
		dur model.Time
	}
	var devs []deviation
	for id := 0; id < n; id++ {
		p := app.Proc(model.ProcessID(id))
		bgs[0].Durations[id], bgs[1].Durations[id] = p.BCET, p.WCET
		for _, c := range []model.Time{p.BCET, (p.BCET + p.WCET) / 2, p.WCET} {
			for bg := range bgs {
				if c != bgs[bg].Durations[id] {
					devs = append(devs, deviation{bg, model.ProcessID(id), c})
				}
			}
		}
	}
	var rs [2]*runtime.Replayer
	for bg := range rs {
		rs[bg] = d.NewReplayer()
		if _, err := rs[bg].Run(bgs[bg], true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := devs[i%len(devs)]
		durs := bgs[v.bg].Durations
		old := durs[v.p]
		durs[v.p] = v.dur
		if _, err := rs[v.bg].Run(bgs[v.bg], false); err != nil {
			b.Fatal(err)
		}
		durs[v.p] = old
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
// steady state — cruise controller, M=20, 2000 scenarios, two faults
// each, with a pre-compiled dispatcher — sequentially and with one worker
// per CPU. The scenarios/sec metric is the engine's headline number;
// docs/PERFORMANCE.md records it with its host and -count 10 command.
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
// docs/PERFORMANCE.md's mapped-dispatch row records it.
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
