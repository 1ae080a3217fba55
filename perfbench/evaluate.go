package main

import (
	"errors"
	"fmt"
	"time"

	"ftsched/internal/appio"
	"ftsched/internal/apps"
	"ftsched/internal/chaos"
	"ftsched/internal/core"
	"ftsched/internal/experiments"
	"ftsched/internal/model"
	"ftsched/internal/runtime"
	"ftsched/internal/sim"
)

// The evaluate workload runs Monte-Carlo passes over trees synthesised in
// set-up: the cruise controller and fig8 under re-execution, restart and
// checkpoint recovery, plus the cruise controller mapped on a
// low-power/high-performance core pair. Each round runs one pass per tree
// and one fig8 chaos campaign with a shed-soft, clamped envelope. Work is
// one Monte-Carlo pass (throughput in scenarios), its latencies are
// per-round means over the trees (tail: 90th percentile), and side is one
// campaign.
const (
	evalM        = 16
	evalMC       = 8192
	evalChaos    = 4096
	evalCheckMC  = 2048
	evalCoreSpec = "lp:1:1:0.05,hp:2:3:0.15"
)

type evalTree struct {
	name string
	tree *core.Tree
	disp *runtime.Dispatcher
}

type evalBench struct {
	cfg   config
	trees []evalTree
	chaos *core.Tree
	errs  []error
}

func setupEvaluate(cfg config, tr *tracer) (bench, error) {
	type variant struct {
		name string
		app  *model.Application
	}
	var variants []variant
	for _, base := range []*model.Application{apps.CruiseController(), apps.Fig8()} {
		models := experiments.StudyModels(base)
		// A restart as slow as two re-executions leaves fig8 unschedulable.
		models[1].Model = model.RestartModel(base.Mu())
		for _, sm := range models {
			app := base
			if !sm.Model.IsCanonical() {
				var err error
				if app, err = base.WithRecovery(sm.Model); err != nil {
					return nil, err
				}
			}
			variants = append(variants, variant{base.Name() + "/" + sm.Name, app})
		}
	}
	plat, err := appio.ParseCoreSpec(evalCoreSpec)
	if err != nil {
		return nil, err
	}
	cc := apps.CruiseController()
	mapped, err := cc.WithPlatform(plat, model.BiasedMapping(cc, plat))
	if err != nil {
		return nil, err
	}
	variants = append(variants, variant{cc.Name() + "/mapped", mapped})
	if cfg.tiny {
		variants = variants[3:4] // fig8 under re-execution
	}

	b := &evalBench{cfg: cfg}
	for _, v := range variants {
		tree, disp, err := synthCompile(v.app, cfg.workers, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		b.trees = append(b.trees, evalTree{v.name, tree, disp})
		if v.app.Name() == apps.Fig8().Name() && !v.app.HasRecovery() {
			b.chaos = tree
		}
	}
	return b, nil
}

// synthCompile synthesises an application's tree and compiles its
// dispatcher, recording both as spans when tracing.
func synthCompile(app *model.Application, workers int, tr *tracer) (*core.Tree, *runtime.Dispatcher, error) {
	var tree *core.Tree
	var disp *runtime.Dispatcher
	if _, err := tr.timed(0, "core.ftqs", func(*span) (err error) {
		tree, err = core.FTQS(app, core.FTQSOptions{M: evalM, Workers: workers, Sink: tr.sink()})
		return err
	}); err != nil {
		return nil, nil, err
	}
	if _, err := tr.timed(0, "runtime.compile", func(*span) (err error) {
		disp, err = runtime.NewDispatcher(tree)
		return err
	}); err != nil {
		return nil, nil, err
	}
	return tree, disp, nil
}

func (b *evalBench) run(d time.Duration, tr *tracer) (figures, error) {
	var fig figures
	var passMS, chaosMS []float64
	var totalNS, passes int64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		var roundNS, n int64
		for i, t := range b.trees {
			seed := sim.ScenarioSeed(b.cfg.seed, round*len(b.trees)+i)
			fig.attempted++
			var stats sim.MCStats
			ns, err := tr.timed(0, "sim.mc", func(s *span) (err error) {
				s.N = evalMC
				stats, err = sim.MonteCarlo(t.tree, sim.MCConfig{
					Scenarios: evalMC, Faults: t.tree.App.K(), Seed: seed,
					Workers: b.cfg.workers, Dispatcher: t.disp,
				})
				return err
			})
			if err == nil && stats.HardViolations != 0 {
				err = fmt.Errorf("%d scenarios missed a hard deadline", stats.HardViolations)
			}
			if err != nil {
				fig.failed++
				b.errs = append(b.errs, fmt.Errorf("monte-carlo %s: %w", t.name, err))
				continue
			}
			roundNS += ns
			n++
		}
		totalNS += roundNS
		passes += n
		passMS = append(passMS, ratio(float64(roundNS), float64(n))/1e6)

		fig.attempted++
		ns, err := runChaos(b.chaos, sim.ScenarioSeed(b.cfg.seed, -1-round), evalChaos, b.cfg.workers, tr)
		if err != nil {
			fig.failed++
			b.errs = append(b.errs, err)
			continue
		}
		chaosMS = append(chaosMS, float64(ns)/1e6)
	}
	if tr != nil {
		for i, t := range b.trees {
			if err := layerMicro(tr, 0, t.tree.App, t.disp, sim.ScenarioSeed(b.cfg.seed, i)); err != nil {
				return fig, fmt.Errorf("%s: %w", t.name, err)
			}
		}
	}
	fig.workPerS = ratio(float64(passes*evalMC), float64(totalNS)/1e9)
	fig.workP50 = median(passMS)
	fig.workTail = quantile(passMS, 0.9)
	fig.sideP50 = median(chaosMS)
	return fig, nil
}

// runChaos runs one chaos campaign under the shed-soft policy with
// watchdog clamping, the configuration that must come out clean, and
// fails on any contract violation.
func runChaos(tree *core.Tree, seed int64, cycles, workers int, tr *tracer) (int64, error) {
	var rep *chaos.Report
	ns, err := tr.timed(0, "chaos", func(s *span) (err error) {
		s.N = int64(cycles)
		rep, err = chaos.Run(tree, chaos.Config{
			Cycles: cycles, Seed: seed, Workers: workers,
			Policy: runtime.PolicyShedSoft, Clamp: true,
			BaseFaults: 1, OverrunProb: 0.25, OverrunFactor: 2,
			BurstProb: 0.25, ExtraFaults: 2, SoftOnly: true,
		})
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("chaos: %w", err)
	}
	tr.sample("chaos.injected", float64(rep.Injected))
	if rep.Panics+rep.Breaches+rep.InModelMisses+rep.DetectionGaps != 0 {
		return 0, fmt.Errorf("chaos: contract violated: %d panics, %d breaches, %d in-model misses, %d detection gaps",
			rep.Panics, rep.Breaches, rep.InModelMisses, rep.DetectionGaps)
	}
	return ns, nil
}

// check requires Monte-Carlo statistics to be identical at one worker and
// at the full worker count, on every tree.
func (b *evalBench) check() error {
	errs := b.errs
	for i, t := range b.trees {
		cfg := sim.MCConfig{Scenarios: evalCheckMC, Faults: t.tree.App.K(), Seed: sim.ScenarioSeed(b.cfg.seed, 1000+i), Dispatcher: t.disp}
		cfg.Workers = 1
		one, err1 := sim.MonteCarlo(t.tree, cfg)
		cfg.Workers = b.cfg.workers
		all, err2 := sim.MonteCarlo(t.tree, cfg)
		switch {
		case err1 != nil || err2 != nil:
			errs = append(errs, fmt.Errorf("%s: %w", t.name, errors.Join(err1, err2)))
		case one != all:
			errs = append(errs, fmt.Errorf("%s: MCStats differ between 1 and %d workers:\n%+v\n%+v", t.name, b.cfg.workers, one, all))
		}
	}
	return errors.Join(errs...)
}

func (b *evalBench) close() {}
