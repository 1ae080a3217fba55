// Benchmarks regenerating the paper's evaluation artefacts. One benchmark
// per table/figure (scaled-down configurations; see EXPERIMENTS.md for the
// full-scale runs via cmd/ftexperiments), plus micro-benchmarks for the
// synthesis algorithms and the online scheduler, whose "very low overhead"
// (§1) is itself a claim worth measuring.
package ftsched_test

import (
	"math/rand"
	"testing"

	"ftsched"
	"ftsched/internal/experiments"
	"ftsched/internal/gen"
	"ftsched/internal/sim"
)

// BenchmarkFig9a regenerates Fig. 9a (no-fault utility of FTQS/FTSS/FTSF
// across application sizes).
func BenchmarkFig9a(b *testing.B) {
	cfg := experiments.Fig9Config{
		Sizes:       []int{10, 30, 50},
		AppsPerSize: 2,
		Scenarios:   200,
		M:           24,
		Seed:        1,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkFig9b regenerates the fault panels of Fig. 9: FTQS evaluated
// under 1..3 injected faults (the static baselines at 3).
func BenchmarkFig9b(b *testing.B) {
	// The Fig9 harness produces both panels; panel (b) is the fault-
	// injection half. Benchmark it separately through a pre-synthesised
	// application so the measured work is the faulty-scenario evaluation.
	rng := rand.New(rand.NewSource(4))
	app, err := gen.Generate(rng, gen.Default(30))
	if err != nil {
		b.Fatal(err)
	}
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 24})
	if err != nil {
		b.Skip("generated instance unschedulable")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for faults := 1; faults <= 3; faults++ {
			st, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{
				Scenarios: 500, Faults: faults, Seed: int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if st.HardViolations != 0 {
				b.Fatal("hard violation")
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1 (utility and synthesis runtime as
// the quasi-static tree grows).
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Table1Config{
		Apps:      2,
		Processes: 30,
		Ms:        []int{1, 8, 34},
		Scenarios: 200,
		Seed:      2,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkCruiseController regenerates the CC case study (k = 2,
// µ = 10% WCET, 39 schedules).
func BenchmarkCruiseController(b *testing.B) {
	cfg := experiments.CCConfig{Scenarios: 500, M: 39, Seed: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.CruiseController(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TreeNodes != 39 {
			b.Fatal("tree size drifted")
		}
	}
}

// BenchmarkFTSS measures static synthesis across the paper's size sweep.
func BenchmarkFTSS(b *testing.B) {
	for _, n := range []int{10, 30, 50} {
		b.Run(sizeName(n), func(b *testing.B) {
			app := genApp(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ftsched.FTSS(app); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFTQS measures tree synthesis for growing tree bounds (the
// runtime column of Table 1).
func BenchmarkFTQS(b *testing.B) {
	app := genApp(b, 30)
	for _, m := range []int{2, 8, 34} {
		b.Run("M"+sizeName(m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFTQSWorkers measures parallel tree synthesis against the
// serial baseline on a 30-process application at the Table 1 tree bound.
// The synthesised tree is identical for every worker count; only the
// wall-clock differs. Record results in EXPERIMENTS.md together with the
// machine's core count — on a single-core host the worker counts tie and
// the speedup over older revisions comes from suffix memoisation alone.
func BenchmarkFTQSWorkers(b *testing.B) {
	app := genApp(b, 30)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("W"+sizeName(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 34, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFTSF measures the baseline synthesis.
func BenchmarkFTSF(b *testing.B) {
	app := genApp(b, 30)
	if _, err := ftsched.FTSF(app); err != nil {
		b.Skip("baseline unschedulable on this instance")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ftsched.FTSF(app); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineScheduler measures one full simulated cycle through the
// quasi-static tree — the per-cycle cost an embedded online scheduler
// would pay (paper §1: "the online overhead of quasi-static scheduling is
// very low").
func BenchmarkOnlineScheduler(b *testing.B) {
	app := ftsched.CruiseController()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 39})
	if err != nil {
		b.Fatal(err)
	}
	scs := make([]ftsched.Scenario, 64)
	for i := range scs {
		rng := sim.NewRNG(int64(i))
		if err := sim.SampleRNGInto(&scs[i], app, &rng, i%3, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := ftsched.Run(tree, scs[i%len(scs)])
		if err != nil {
			b.Fatal(err)
		}
		if len(r.HardViolations) != 0 {
			b.Fatal("hard violation")
		}
	}
}

// BenchmarkMonteCarlo measures the evaluation engine itself (1000
// scenarios per iteration).
func BenchmarkMonteCarlo(b *testing.B) {
	app := genApp(b, 30)
	s, err := ftsched.FTSS(app)
	if err != nil {
		b.Fatal(err)
	}
	tree := ftsched.StaticTree(app, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{
			Scenarios: 1000, Faults: 1, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloObs measures the observability overhead on the full
// evaluation path: 2000 cruise-controller scenarios per iteration through
// one dispatcher, uninstrumented vs a NopSink vs the live Metrics
// collector. The live-sink column must stay within 10% of the plain one
// (asserted offline from BENCH_obs.json; see EXPERIMENTS.md).
func BenchmarkMonteCarloObs(b *testing.B) {
	app := ftsched.CruiseController()
	tree, err := ftsched.FTQS(app, ftsched.FTQSOptions{M: 39})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sink ftsched.Sink
	}{
		{"Plain", nil},
		{"NopSink", ftsched.NopSink{}},
		{"LiveSink", ftsched.NewMetrics()},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := ftsched.MonteCarlo(tree, ftsched.MCConfig{
					Scenarios: 2000, Faults: 1, Seed: 7, Sink: c.sink,
				})
				if err != nil {
					b.Fatal(err)
				}
				if st.HardViolations != 0 {
					b.Fatal("hard violation")
				}
			}
		})
	}
}

func genApp(b *testing.B, n int) *ftsched.Application {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	for attempt := 0; attempt < 50; attempt++ {
		app, err := gen.Generate(rng, gen.Default(n))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ftsched.FTSS(app); err == nil {
			return app
		}
	}
	b.Fatal("no schedulable instance")
	return nil
}

func sizeName(n int) string {
	if n >= 10 {
		return string(rune('0'+n/10)) + string(rune('0'+n%10))
	}
	return string(rune('0' + n))
}
