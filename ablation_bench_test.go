package ftsched_test

import (
	"math/rand"
	"testing"

	"ftsched"
	"ftsched/internal/core"
	"ftsched/internal/gen"
	"ftsched/internal/sim"
)

// Ablation benchmarks for the design decisions documented in DESIGN.md and
// EXPERIMENTS.md. Each reports, besides the synthesis cost, the measured
// FTQS-over-FTSS utility gain as a custom metric "gain%" so the effect of
// the ablated mechanism is visible in the benchmark output.

func ablationApps(b *testing.B) []*ftsched.Application {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	var out []*ftsched.Application
	for i := 0; i < 200 && len(out) < 6; i++ {
		app, err := gen.Generate(rng, gen.Default(30))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ftsched.FTSS(app); err == nil {
			out = append(out, app)
		}
	}
	if len(out) == 0 {
		b.Fatal("no schedulable instance")
	}
	return out
}

// ablationGain returns the FTQS-over-FTSS utility gain in percent,
// averaged over the given applications.
func ablationGain(b *testing.B, apps []*ftsched.Application, opts core.FTQSOptions) float64 {
	b.Helper()
	var sum float64
	for _, app := range apps {
		root, err := core.FTSS(app)
		if err != nil {
			b.Fatal(err)
		}
		tree, err := core.FTQSFromRoot(app, root, opts)
		if err != nil {
			b.Fatal(err)
		}
		cfg := sim.MCConfig{Scenarios: 2000, Faults: 0, Seed: 7}
		q, err := sim.MonteCarlo(tree, cfg)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sim.MonteCarlo(sim.StaticTree(app, root), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if s.MeanUtility > 0 {
			sum += 100 * (q.MeanUtility - s.MeanUtility) / s.MeanUtility
		}
	}
	return sum / float64(len(apps))
}

// BenchmarkAblationRevival isolates the contribution of re-admitting
// processes the pessimistic root dropped (DESIGN.md: the dominant source
// of the quasi-static gain).
func BenchmarkAblationRevival(b *testing.B) {
	apps := ablationApps(b)
	for _, c := range []struct {
		name    string
		disable bool
	}{{"on", false}, {"off", true}} {
		b.Run(c.name, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				gain = ablationGain(b, apps, core.FTQSOptions{M: 24, DisableRevival: c.disable})
			}
			b.ReportMetric(gain, "gain%")
		})
	}
}

// BenchmarkAblationEvalScenarios compares the paper's average-execution-
// time point estimate against the deterministic quadrature used by
// default in interval partitioning.
func BenchmarkAblationEvalScenarios(b *testing.B) {
	apps := ablationApps(b)
	for _, c := range []struct {
		name      string
		scenarios int
	}{{"point", 1}, {"quadrature8", 8}, {"quadrature16", 16}} {
		b.Run(c.name, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				gain = ablationGain(b, apps, core.FTQSOptions{M: 24, EvalScenarios: c.scenarios})
			}
			b.ReportMetric(gain, "gain%")
		})
	}
}
